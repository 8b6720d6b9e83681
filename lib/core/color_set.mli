(** A policy's cached color set: membership in a bool array, plus the
    order in which the set hands its members to {!Cache_layout.place}.

    That order decides which free location each new copy lands on, so it
    is part of every event stream. The EDF-style sets have always listed
    their members the way [Hashtbl.fold] over a [Hashtbl.create 16]
    table walks them (consing onto a list): bucket by bucket, highest
    bucket first, each bucket's members oldest insertion first, where a
    member's bucket is [Hashtbl.hash color] masked by a bucket count
    that starts at 16, doubles whenever the set grows past twice the
    bucket count, and returns to 16 on {!clear}. {!fill_table_order}
    reproduces that walk from precomputed hashes and insertion stamps,
    without a table. *)

type t

val create : num_colors:int -> t
val mem : t -> Rrs_sim.Types.color -> bool
val cardinal : t -> int

(** Adding a member is a no-op; a new member is stamped as the newest. *)
val add : t -> Rrs_sim.Types.color -> unit

val remove : t -> Rrs_sim.Types.color -> unit

(** Empty the set (and return to 16 buckets, like [Hashtbl.reset]). *)
val clear : t -> unit

(** [fill_table_order t dst ~from] writes the members into
    [dst.(from ..)] in hash-table walk order and returns the index after
    the last one written. *)
val fill_table_order : t -> Rrs_sim.Types.color array -> from:int -> int

(** Members, ascending (for serialization). *)
val to_list : t -> Rrs_sim.Types.color list
