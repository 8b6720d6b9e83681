(** Interface between the round engine and reconfiguration policies.

    A policy owns the algorithm-specific state (counters, eligibility,
    timestamps, cached sets) and exposes one decision: the desired
    location->color assignment for the coming execution phase. The engine
    diffs that target against the current assignment and charges [Delta]
    per location whose color changes — policies can never mis-account
    reconfiguration cost.

    Colors are plain ints on both sides of the contract, and every buffer
    that crosses it belongs to the engine and is reused round after
    round, so a policy that keeps its own scratch space preallocated runs
    a steady-state round without allocating:

    - [reconfigure] writes its target into the engine's [target] array
      (length [view.n], filled with [-1] before each call). A color [c]
      at a location makes the location active on [c]: it is recolored
      (cost [Delta]) unless it already holds [c], and executes up to one
      pending [c] job this mini-round.
    - [-1] in the target means inactive: the location executes nothing;
      its physical color persists, so resuming the same color later is
      free — a legal schedule in the paper's cost model (execution is
      "up to one job"), and never more expensive than the paper's own
      accounting, which charges every cache re-entry. Any other value
      outside [0 .. colors - 1] is rejected by the engine.
    - [view.assignment] holds the physical colors, [-1] for a location
      that was never configured (or lost its color in a crash).
    - [on_drop] reads the round's drops from the pool's drop buffer
      ({!Job_pool.drops}), valid only during the call.
    - The [view], its [assignment] and [pool], and the drop buffer are
      read-only; policies must not mutate them or keep them past the
      call. The engine updates [view.round] and [view.mini_round] in
      place between calls. *)

type view = {
  mutable round : int;
  mutable mini_round : int; (* 0 for uni-speed; 0,1 for double-speed (Section 3.3) *)
  n : int; (* number of locations (resources) *)
  delta : int;
  bounds : int array; (* per-color delay bounds *)
  assignment : Types.color array; (* current configuration, -1 = none *)
  pool : Job_pool.t; (* pending jobs *)
}

module type POLICY = sig
  type t

  val name : string
  val create : n:int -> delta:int -> bounds:int array -> t

  (** Called after the engine's drop phase of each round with the jobs it
      dropped (per color). Policies update eligibility here. *)
  val on_drop : t -> round:int -> dropped:Job_pool.drops -> unit

  (** Called after the arrival phase with the (normalized) request. *)
  val on_arrival : t -> round:int -> request:Types.request -> unit

  (** Write the desired assignment for this mini-round into [target]
      (length [view.n], arriving filled with [-1]). *)
  val reconfigure : t -> view -> target:Types.color array -> unit

  (** Algorithm-specific counters exposed for experiments (epochs, wraps,
      eligible/ineligible drop split, ...). *)
  val stats : t -> (string * int) list

  (** The policy's internal state as one flat JSON object (string keys;
      int, string or int-array values — the dialect
      {!Event_sink.Json.parse_fields} reads). Together with
      [deserialize] this is the materialized-state replay base of
      [rrs-snap/2] checkpoints: the blob must capture everything the
      policy needs to continue deterministically, and its size must be
      bounded by the instance (colors, locations), never by the rounds
      served. *)
  val serialize : t -> string

  (** [deserialize t blob] applies a {!serialize}d blob to a state
      freshly built by [create] with the same [n]/[delta]/[bounds].
      After it returns, [t] must behave exactly as the serialized state
      did. @raise Event_sink.Json.Parse_error (or [Invalid_argument]) on
      a blob this policy did not write. *)
  val deserialize : t -> string -> unit
end

(** A policy packaged with the constructor arguments it needs, for
    registries and CLI dispatch. *)
type packed = Packed : (module POLICY) -> packed

let name (Packed (module P)) = P.name
