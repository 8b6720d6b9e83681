(** Per-color bookkeeping shared by ΔLRU, EDF and ΔLRU-EDF — the "common
    aspects" of Section 3.1.

    For each color [l] the paper maintains a counter [l.cnt], a deadline
    [l.dd], and an eligibility bit, updated at integral multiples of the
    color's delay bound [D_l]:

    - Drop phase of round [k], [k mod D_l = 0]: if [l] is eligible and not
      cached, it becomes ineligible and [l.cnt] resets to 0 (this ends an
      epoch of [l]).
    - Arrival phase of round [k], [k mod D_l = 0]: [l.dd := k + D_l];
      [l.cnt] grows by the number of arriving color-[l] jobs; when
      [l.cnt >= Delta] it wraps to [l.cnt mod Delta] (a {e counter
      wrapping event}) and [l] becomes eligible.

    The ΔLRU {e timestamp} of [l] (Section 3.1.1) is the latest round
    strictly before the most recent multiple of [D_l] in which a counter
    wrapping event of [l] occurred, and 0 if there is none.

    The module also instruments the quantities used by the analysis:
    epochs (Section 3.2), counter wraps, timestamp update events
    (Section 3.4), and the eligible/ineligible split of drop costs. *)

type t

(** [on_timestamp] is invoked once per timestamp-update event, in
    chronological order, as the event happens — the incremental
    alternative to [record_timestamp_events] for consumers (super-epoch
    tracking) that must not hold the whole event log. *)
val create :
  ?record_timestamp_events:bool ->
  ?on_timestamp:(round:int -> color:int -> unit) ->
  delta:int ->
  bounds:int array ->
  unit ->
  t

val num_colors : t -> int

(** Drop-phase hook. [dropped] is the engine's drop buffer for this
    round; [in_cache] reports current cache membership (the policy's own
    cached set — pass a closure built once, not per call, to keep the
    round allocation-free). Dropped jobs are classified
    eligible/ineligible by the color's eligibility {e before} any reset
    this round. *)
val on_drop :
  t ->
  round:int ->
  dropped:Rrs_sim.Job_pool.drops ->
  in_cache:(Rrs_sim.Types.color -> bool) ->
  unit

(** Arrival-phase hook. Updates deadlines at every boundary of every color
    (even with no arriving jobs), then applies counter/eligibility updates
    for the arriving jobs. *)
val on_arrival : t -> round:int -> request:Rrs_sim.Types.request -> unit

val eligible : t -> Rrs_sim.Types.color -> bool

(** Current per-color deadline [l.dd] (0 before the first boundary). *)
val deadline : t -> Rrs_sim.Types.color -> int

(** ΔLRU timestamp of the color as of [round]. *)
val timestamp : t -> Rrs_sim.Types.color -> round:int -> int

(** LRU-2 timestamp: the second-to-last counter-wrap round strictly
    before the most recent boundary (0 when fewer than two such wraps
    exist) — the LRU-K recency notion of O'Neil et al. with K = 2,
    used by the {!Policy_lru_k} baseline. *)
val timestamp2 : t -> Rrs_sim.Types.color -> round:int -> int

(** [fill_eligible t dst] writes the currently eligible colors into
    [dst] (length at least {!num_colors}), ascending, and returns how
    many there are. *)
val fill_eligible : t -> Rrs_sim.Types.color array -> int

(** Counters for experiments: ["epochs"] (ended + active incomplete),
    ["wraps"], ["timestamp_updates"], ["eligible_drops"],
    ["ineligible_drops"]. *)
val stats : t -> (string * int) list

(** Chronological [(round, color)] timestamp-update events (empty unless
    [record_timestamp_events] was set). Used to count super-epochs. *)
val timestamp_events : t -> (int * int) list

(** The per-color state as [rrs-snap/2] policy-blob field fragments
    (["cs_"]-prefixed keys, no surrounding braces), for policies to splice
    into their own flat JSON blob. The timestamp event log is not
    serialized — it grows with rounds served; incremental consumers use
    [on_timestamp] instead. *)
val serialize_fields : t -> string

(** Applies fields written by {!serialize_fields} to a freshly created
    state with the same [delta]/[bounds].
    @raise Rrs_sim.Event_sink.Json.Parse_error on missing fields or
    per-color arrays whose length disagrees with [num_colors]. *)
val deserialize_fields : t -> (string * Rrs_sim.Event_sink.Json.value) list -> unit
