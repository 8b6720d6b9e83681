(** Color-ranking schemes shared by the algorithms (Sections 3.1.2, 3.3),
    as int keys: a smaller key ranks first, and no two colors share a
    key, so selecting the smallest keys ({!Rrs_ds.Topk.select}) picks
    exactly the colors the comparison-based definitions pick.

    EDF rank over eligible colors: nonidle colors first, then ascending
    deadline, breaking ties by increasing delay bound, then by the
    consistent order of colors (ascending id). ΔLRU recency: most recent
    timestamp first, ties by the consistent order. Pending-job rank:
    earliest pending deadline, then bound, then color. *)

type t

(** Precomputes the static tie-break of [bounds]: each color's rank by
    (bound, color). *)
val create : bounds:int array -> t

(** EDF key of [color] from its [Color_state.deadline] and whether it is
    nonidle in [pool].
    @raise Invalid_argument on a deadline too large to pack (beyond
    [max_int / (2 * colors)]). *)
val edf_key :
  t -> Color_state.t -> Rrs_sim.Job_pool.t -> Rrs_sim.Types.color -> int

(** ΔLRU key of [color] as of [round]. *)
val lru_key : t -> Color_state.t -> round:int -> Rrs_sim.Types.color -> int

(** Pending-job key of a nonidle [color]: its earliest pending deadline,
    then bound, then color (Section 3.3's job ranking, applied to the
    best job of each color). *)
val job_key : t -> Rrs_sim.Job_pool.t -> Rrs_sim.Types.color -> int

(** The lowest-ranked member of a nonempty set under {!edf_key}: the
    color a sticky EDF cache evicts. *)
val worst_edf :
  t -> Color_state.t -> Rrs_sim.Job_pool.t -> Color_set.t -> Rrs_sim.Types.color
