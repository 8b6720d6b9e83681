(** Cost accounting for a run: reconfigurations, drops, executions.

    The ledger is the single source of truth for the objective value
    [total_cost = delta * reconfigurations + drops]. Events are routed to
    an {!Event_sink.t}: a [Memory] sink retains them for the schedule
    validator, a [Jsonl] sink streams them with bounded resident memory,
    and [Null] discards them — the counters are maintained regardless,
    and with [Null] no event value is built at all.

    Fault accounting: a {e failed} reconfiguration (the fault plan made a
    Configure pay [Delta] without taking effect) is included in
    {!reconfig_count} — it was paid for — and additionally counted by
    {!failed_reconfig_count}. Crash/repair transitions carry no cost;
    they are events only. *)

type event = Event_sink.event =
  | Reconfig of { round : int; mini_round : int; location : int;
                  previous : Types.color option; next : Types.color }
  | Drop of { round : int; color : Types.color; count : int }
  | Execute of { round : int; mini_round : int; location : int;
                 color : Types.color; deadline : int }
  | Crash of { round : int; location : int }
  | Repair of { round : int; location : int }
  | Reconfig_failed of { round : int; mini_round : int; location : int;
                         previous : Types.color option;
                         attempted : Types.color }

type t

(** [create ~delta ()] is an empty ledger. [sink] (when given) receives
    every event; otherwise [record_events] (default [true]) selects a
    fresh [Memory] sink or [Null]. *)
val create : ?record_events:bool -> ?sink:Event_sink.t -> delta:int -> unit -> t

(** The sink events are routed to. *)
val sink : t -> Event_sink.t

(** [previous] is the location's color before the change, [-1] for an
    unconfigured location (the event carries it as [None]). *)
val record_reconfig :
  t -> round:int -> mini_round:int -> location:int ->
  previous:Types.color -> next:Types.color -> unit

(** A Configure that paid [Delta] but left [previous] in place (fault
    injection): counts toward {!reconfig_count} and
    {!failed_reconfig_count}. *)
val record_failed_reconfig :
  t -> round:int -> mini_round:int -> location:int ->
  previous:Types.color -> attempted:Types.color -> unit

val record_drop : t -> round:int -> color:Types.color -> count:int -> unit

val record_execute :
  t -> round:int -> mini_round:int -> location:int -> color:Types.color ->
  deadline:int -> unit

(** Cost-free fault transitions, forwarded to the sink. *)
val record_crash : t -> round:int -> location:int -> unit

val record_repair : t -> round:int -> location:int -> unit

(** Overwrite the counters without emitting events — the checkpoint seed
    of an [rrs-snap/2] restore, where the totals up to the checkpoint are
    carried by the snapshot rather than replayed. *)
val seed : t -> reconfigs:int -> failed:int -> drops:int -> execs:int -> unit

(** All paid reconfigurations, failed ones included. *)
val reconfig_count : t -> int

(** The subset of {!reconfig_count} that paid without taking effect. *)
val failed_reconfig_count : t -> int

val drop_count : t -> int
val exec_count : t -> int

(** [delta * reconfig_count]. *)
val reconfig_cost : t -> int

(** [reconfig_cost + drop_count]. *)
val total_cost : t -> int

(** Events retained by the sink in chronological order ([] unless the
    sink is [Memory]). *)
val events : t -> event list

(** The one-line summary from raw counters — {!pp_summary} uses this, and
    so does [Rrs_stats.Report] when reconstructing a run from its JSONL,
    which is what makes the two byte-identical. With [failed = 0] (the
    default) the line is unchanged from fault-free builds. *)
val pp_summary_counts :
  ?failed:int -> Format.formatter -> delta:int -> reconfigs:int -> drops:int ->
  execs:int -> unit

val pp_summary : Format.formatter -> t -> unit
