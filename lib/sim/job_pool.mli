(** Pending-job store: one deadline FIFO per color.

    The engine owns one pool per run. Jobs of one color are
    indistinguishable except for their deadline, so each color keeps a
    ring of [(deadline, count)] entries in ascending deadline order;
    executing a job of a color always consumes the earliest deadline
    (within one color this is optimal and matches every algorithm in the
    paper).

    Every caller adds a color's jobs at [round + bound(color)] with
    nondecreasing rounds, and a restore re-adds a checkpoint's deadlines
    in ascending order, so a color's deadlines always arrive in order: a
    ring append (merging into the last entry on an equal deadline) keeps
    them sorted, and {!add} rejects anything else. The rings and the drop
    buffer are reused, so a steady-state round allocates nothing here. *)

type t

val create : num_colors:int -> t

(** Number of pending jobs of [color]. *)
val pending : t -> Types.color -> int

(** A color is nonidle when it has at least one pending job. *)
val nonidle : t -> Types.color -> bool

(** Earliest pending deadline of [color].
    @raise Invalid_argument when the color is idle. *)
val earliest_deadline : t -> Types.color -> int

(** Total pending jobs over all colors. *)
val total_pending : t -> int

(** Deadline multiset of a color as ascending [(deadline, count)] pairs. *)
val deadlines : t -> Types.color -> (int * int) list

(** [add t ~color ~deadline ~count] registers newly arrived jobs.
    @raise Invalid_argument if [count] is negative, if [deadline] is in
    the past of the pool's expiry clock, or if it is earlier than a
    deadline of [color] already pending. *)
val add : t -> color:Types.color -> deadline:int -> count:int -> unit

(** The outcome of one drop phase. The pool owns it and overwrites it on
    every {!drop_expired}; readers must not mutate it. *)
type drops = {
  colors : Types.color array;
      (** [colors.(0 .. length - 1)]: the colors that dropped jobs,
          ascending *)
  mutable length : int;
  jobs : int array;
      (** [jobs.(color)]: jobs of [color] dropped (0 for colors not in
          [colors]) *)
}

(** [drop_expired t ~round] implements the drop phase of [round]: removes
    every pending job with deadline [<= round] and reports the dropped
    counts per color in the pool's drop buffer, which it returns. Must be
    called with nondecreasing rounds. *)
val drop_expired : t -> round:int -> drops

(** The buffer as [(color, count)] pairs, ascending color. *)
val drops_to_list : drops -> (Types.color * int) list

(** [execute_one t ~color ~round] consumes the earliest-deadline pending
    job of [color] and returns its deadline, or [-1] when the color is
    idle. @raise Invalid_argument if the earliest deadline is [<= round]
    (an expired job survived a drop phase — engine bug). *)
val execute_one : t -> color:Types.color -> round:int -> int

(** Deep copy (used by what-if explorations in tests). The copy preserves
    the pool's expiry clock: it rejects the same past deadlines as the
    original. *)
val copy : t -> t
