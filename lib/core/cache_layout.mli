(** Stable placement of a wanted color set onto cache locations.

    Policies decide {e which} colors to cache; this module decides
    {e where}, preserving existing placements so that the engine's
    location diff charges exactly one reconfiguration per newly placed
    copy. Each wanted color is cached in [copies] locations (Section 3.1
    replicates every cached color in two locations; Seq-EDF uses one).
    Colors are plain ints, [-1] marking an unconfigured or inactive
    location, as in {!Rrs_sim.Policy}. *)

(** Per-color copy counters, reused by every {!place}. *)
type t

val create : num_colors:int -> t

(** [place t ~copies ~current ~want ~len ~target] fills [target]
    (length [n], the number of locations) with an assignment in which
    every color of [want.(0 .. len-1)] occupies exactly [copies]
    locations and all other locations are inactive ([-1]).

    Locations whose [current] color is wanted are kept (up to [copies]);
    missing copies go to the lowest-index locations not otherwise used,
    colors taken in [want] order.

    @raise Invalid_argument if [want] has duplicates,
    [copies * len > n], or [current] and [target] differ in length. *)
val place :
  t ->
  copies:int ->
  current:Rrs_sim.Types.color array ->
  want:Rrs_sim.Types.color array ->
  len:int ->
  target:Rrs_sim.Types.color array ->
  unit
