(** One named scheduler session: a {!Rrs_sim.Stepper} plus admission
    control and a mutex.

    Every operation locks the session, so concurrent worker domains can
    serve frames for the same session safely (operations serialize; the
    stepper itself is single-threaded state). The optional
    [on_lock_wait_us] callback on each operation observes how long this
    caller spent blocked on the session mutex, in µs — the serving
    layer's [lock_wait_us] series; omitted, the lock is taken bare.

    {b Admission control}: [feed] is bounded by [queue_limit] jobs of
    fed-but-unstepped backlog. A feed that would exceed it is {e shed} —
    refused whole, counted in the session's [shed] total and the
    [shed_jobs] probe, and answered explicitly; the session itself is
    never harmed. Conservation, checked by the E18 harness:
    [fed = accepted + shed] and
    [accepted = execs + drops + pool pending + buffered].

    {b Snapshot} (schema [rrs-sess/1]): one header line carrying the
    session name, policy key, queue limit, fed/shed totals and the
    embedded stepper document's version ([snap_version]: 1 or 2,
    absent = 1 in pre-/2 files), followed by that [rrs-snap/1] or [/2]
    document. [restore] cross-checks the declared version against the
    schema the body actually carries — a mismatch is a spliced or
    corrupt file, rejected before any replay — then rebuilds the
    stepper by deterministic replay (see {!Rrs_sim.Stepper}). Sessions
    default to [rrs-snap/2] with a checkpoint every
    {!default_checkpoint_every} rounds, which bounds snapshot size and
    restore time by the interval instead of the session's lifetime. *)

val snapshot_schema : string
(** ["rrs-sess/1"]. *)

val default_queue_limit : int
(** Backlog bound used when [create]'s [queue_limit] is 0 or absent. *)

val default_checkpoint_every : int
(** Checkpoint interval of a version-2 session when [checkpoint_every]
    is absent. *)

type t

(** [create ~name ~policy config] opens a session at round 0. [policy]
    is a registry key ({!Rrs_core.Policies}); [trace_dir], when given,
    streams the session's [rrs-events/2] document to
    [<trace_dir>/<name>.events.jsonl]. [snap_version] (default 2)
    selects the snapshot schema; [checkpoint_every] (default
    {!default_checkpoint_every} under version 2, 0 under version 1)
    the stepper's checkpoint interval. Errors (unknown policy, invalid
    config, unknown version, a positive interval under version 1) are
    returned, never raised. *)
val create :
  name:string ->
  policy:string ->
  ?queue_limit:int ->
  ?snap_version:int ->
  ?checkpoint_every:int ->
  ?trace_dir:string ->
  Rrs_sim.Stepper.config ->
  (t, string) result

val name : t -> string

(** Events the session's ledger holds in memory. Always 0: without a
    trace directory the ledger keeps counters only, and with one it
    streams every event to the session's trace file. *)
val retained_events : t -> int
val policy_key : t -> string
val queue_limit : t -> int

(** The stepper configuration the session runs ([n], [delta], bounds,
    [speed], horizon) — the admission gate checks re-declarations
    against it. *)
val config : t -> Rrs_sim.Stepper.config

val num_colors : t -> int

(** The stepper snapshot version this session writes (1 or 2). *)
val snap_version : t -> int

(** The stepper's checkpoint interval (0 = never). *)
val checkpoint_every : t -> int

(** {2 Admission declaration}

    A session may carry a declared arrival envelope ({!Wire.decl}):
    installed at [open] (or re-declared by a later [feed]) when the
    server runs with [--admission]. With [police] set (the server's
    enforce mode) every [feed] is checked against the cumulative
    envelope [burst_l + floor ((round + 1) * rate_l / den)] — exactly
    what a spec-conformant generator has produced through the current
    round, so honest traffic is never policed — and an over-envelope
    feed is refused whole ({!Policed}), counted like a shed. The
    declaration, the envelope cursor and the policed total persist in
    the session snapshot header (optional fields; pre-admission
    documents restore as undeclared). *)

(** Install or replace the declared envelope. The caller validates the
    declaration's shape ({!Admission.validate_decl}) first. *)
val declare :
  ?on_lock_wait_us:(int -> unit) -> t -> decl:Wire.decl -> police:bool -> unit

val declaration : t -> Wire.decl option

(** Jobs refused by the envelope so far (a subset of the shed total). *)
val policed : t -> int

type feed_result =
  | Accepted of { accepted : int; buffered : int }
  | Shed_reply of { shed : int; buffered : int; limit : int }
  | Policed of { color : int; offered : int; allowance : int }
      (** The feed would exceed the declared envelope for [color]:
          cumulative [offered] jobs against an [allowance] through the
          current round. Refused whole; counted in [fed]/[shed] (and
          the policed total), never enqueued. *)

(** [feed t ~colors ~counts] offers one request. [Error] means the
    request was rejected outright (mismatched arrays, unknown color,
    negative count) and does not count as fed. *)
val feed :
  ?on_lock_wait_us:(int -> unit) ->
  t ->
  colors:int array ->
  counts:int array ->
  (feed_result, string) result

type step_result = {
  sr_round : int;
  sr_pending : int;
  sr_cost : int;
  sr_reconfigs : int;
  sr_drops : int;
  sr_execs : int;
}

val step :
  ?on_lock_wait_us:(int -> unit) -> t -> rounds:int ->
  (step_result, string) result

type stats = {
  st_round : int;
  st_pending : int;
  st_buffered : int;
  st_fed : int;
  st_accepted : int;
  st_shed : int;
  st_execs : int;
  st_drops : int;
  st_reconfigs : int;
  st_failed : int;
  st_cost : int;
}

val stats : ?on_lock_wait_us:(int -> unit) -> t -> stats

(** The session as an [rrs-sess/1] document (embedded stepper schema per
    {!snap_version}). *)
val snapshot : ?on_lock_wait_us:(int -> unit) -> t -> string

(** Atomic write of {!snapshot} (temp + rename); on failure the channel
    is closed and the temp file unlinked before the exception
    propagates. *)
val save : ?on_lock_wait_us:(int -> unit) -> t -> path:string -> unit

(** Checkpoint-boundary autosave: {!save} to [path] at most once per
    checkpoint epoch ([round / checkpoint_every]), so a crashed process
    loses at most the unsnapshotted window. True when a document was
    written; always false for /1 sessions (no checkpoints). A failed
    write re-arms the epoch so the next boundary retries. *)
val autosave : ?on_lock_wait_us:(int -> unit) -> t -> path:string -> bool

(** Finish the stepper (writes the stream summary), close the trace,
    return the final total cost. *)
val close : ?on_lock_wait_us:(int -> unit) -> t -> (int, string) result

(** Tear down without a summary (the trace ends with an [aborted]
    record): used when the server stops without drain. *)
val release : t -> unit

(** Rebuild a session from an [rrs-sess/1] document. Rejects a document
    whose declared [snap_version] disagrees with the schema the embedded
    stepper document carries. [snap_version], when given, is the
    server's preference for {e future} snapshots: the session adopts
    [max declared preference] — an upgrade re-snapshots a /1 document as
    /2 (gaining a {!default_checkpoint_every} interval unless
    [checkpoint_every] overrides it), while a /2 document is never
    downgraded (its checkpoint base cannot replay from round 0). *)
val restore :
  ?trace_dir:string ->
  ?snap_version:int ->
  ?checkpoint_every:int ->
  string ->
  (t, string) result

(** {!restore} from a file. *)
val load :
  ?trace_dir:string ->
  ?snap_version:int ->
  ?checkpoint_every:int ->
  path:string ->
  unit ->
  (t, string) result
