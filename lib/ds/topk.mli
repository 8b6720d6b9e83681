(** k-best selection over int keys, into caller-owned arrays.

    Scheduling policies use this every reconfiguration phase to pick the
    top-[n/4] or top-[n/2] colors by recency or by deadline rank. They
    compute one int key per candidate first (smaller ranks first), so the
    selection compares ints only; insertion into a sorted prefix of at
    most [k] slots costs [O(len * k)], which for the few dozen candidates
    and the handful of slots a round ranks beats any heap, and it
    allocates nothing. *)

(** [select ~keys ~k src ~len dst] writes into [dst.(0 .. m-1)] the
    [m = min k len] elements of [src.(0 .. len-1)] with the smallest keys
    ([keys.(x)] is element [x]'s key), in ascending key order, and
    returns [m]. Equal keys keep their order in [src]. [k <= 0] selects
    nothing. [dst] must have room for [m] elements and must not be
    [src]. *)
val select : keys:int array -> k:int -> int array -> len:int -> int array -> int
