module Probe = Rrs_obs.Probe
module Profile = Rrs_obs.Profile
module Json = Event_sink.Json

let phase_names = [ "drop"; "arrival"; "reconfig"; "execute" ]

let snapshot_schema = "rrs-snap/1"
let snapshot_schema_v2 = "rrs-snap/2"

let schema_of_version = function
  | 1 -> snapshot_schema
  | 2 -> snapshot_schema_v2
  | v -> invalid_arg (Printf.sprintf "Stepper: unknown snapshot version %d" v)

type config = {
  name : string;
  delta : int;
  bounds : int array;
  n : int;
  speed : int;
  horizon : int;
}

type result = {
  ledger : Ledger.t;
  stats : (string * int) list;
  final_assignment : Types.color array;
  profile : Profile.t option;
}

(* The standard engine probes, registered in the caller's registry so
   policies and analysis helpers share the namespace. *)
type probes = {
  registry : Probe.registry;
  exec_slack : Probe.histogram;
  drop_latency : Probe.histogram;
  round_reconfigs : Probe.histogram;
  queue_depth : Probe.histogram;
  offline_locations : Probe.histogram;
  failed_reconfigs : Probe.counter;
  color_depth : Probe.gauge array;
}

let make_probes registry ~num_colors =
  {
    registry;
    exec_slack = Probe.histogram registry "exec_slack";
    drop_latency = Probe.histogram registry "drop_latency";
    round_reconfigs = Probe.histogram registry "round_reconfigs";
    queue_depth = Probe.histogram registry "queue_depth";
    offline_locations = Probe.histogram registry "offline_locations";
    failed_reconfigs = Probe.counter registry "failed_reconfigs";
    color_depth =
      Array.init num_colors (fun color ->
          Probe.gauge registry (Printf.sprintf "queue_depth_c%d" color));
  }

(* A policy instantiated over its (existential) state, so the stepper can
   hold any policy without exposing the state type. *)
type policy_instance = {
  p_name : string;
  p_on_drop : round:int -> dropped:Job_pool.drops -> unit;
  p_on_arrival : round:int -> request:Types.request -> unit;
  p_reconfigure : Policy.view -> Types.color array -> unit;
  p_stats : unit -> (string * int) list;
  p_serialize : unit -> string;
  p_deserialize : string -> unit;
}

let instantiate (module P : Policy.POLICY) ~n ~delta ~bounds =
  let state = P.create ~n ~delta ~bounds in
  {
    p_name = P.name;
    p_on_drop = (fun ~round ~dropped -> P.on_drop state ~round ~dropped);
    p_on_arrival = (fun ~round ~request -> P.on_arrival state ~round ~request);
    p_reconfigure = (fun view target -> P.reconfigure state view ~target);
    p_stats = (fun () -> P.stats state);
    p_serialize = (fun () -> P.serialize state);
    p_deserialize = (fun blob -> P.deserialize state blob);
  }

(* A materialized-state checkpoint: the [rrs-snap/2] replay base.
   Everything a fresh stepper needs to stand at [ck_round] as if it had
   replayed rounds [0..ck_round-1]: the pool's deadline multisets, the
   physical assignment, the offline set, the ledger counters, and the
   policy's serialized internal state. Its size is bounded by the
   instance (colors x distinct deadlines, locations, policy blob), never
   by the rounds served. *)
type checkpoint = {
  ck_round : int;
  ck_accepted : int;
  ck_pending : (int * (int * int) list) list; (* color -> deadline multiset *)
  ck_assignment : int array; (* -1 = unconfigured *)
  ck_offline : int list;
  ck_reconfigs : int;
  ck_failed : int;
  ck_drops : int;
  ck_execs : int;
  ck_policy : string; (* the policy's [serialize] blob *)
}

type t = {
  config : config;
  label : string;
  policy : (module Policy.POLICY); (* kept so [snapshot] can name it *)
  pi : policy_instance;
  pool : Job_pool.t;
  ledger : Ledger.t;
  sink : Event_sink.t;
  probes : probes option;
  prof : Profile.t;
  profile : bool;
  fault_plan : Fault.plan option; (* original plan, embedded in snapshots *)
  faults : Fault.compiled option;
  assignment : Types.color array; (* physical colors, -1 = unconfigured *)
  target : Types.color array; (* the policy's target, reused every mini-round *)
  view : Policy.view; (* handed to the policy, updated in place *)
  offline : bool array;
  checkpoint_every : int; (* 0 = never checkpoint (full-history replay) *)
  mutable base : checkpoint option; (* latest checkpoint, if any *)
  mutable offline_count : int;
  mutable round : int; (* the round the next [step] executes *)
  mutable fed : Types.request; (* the round's first fed chunk *)
  mutable fed_more : Types.request list; (* later chunks, newest first *)
  mutable buffered_jobs : int;
  mutable accepted_jobs : int; (* total jobs accepted by [feed] *)
  (* Consumed arrivals since the latest checkpoint (all of them when
     [checkpoint_every = 0]), oldest first in
     [history_rounds/history_requests.(0 .. history_len - 1)]: the delta
     section of the deterministic-replay base for [snapshot]/[restore].
     With checkpointing on, [step] truncates this at every checkpoint, so
     its length — and with it snapshot size and restore replay time — is
     O(checkpoint_every), not O(total arrivals). The arrays grow by
     doubling, so a round appends without allocating. *)
  mutable history_rounds : int array;
  mutable history_requests : Types.request array;
  mutable history_len : int;
  mutable finished : bool;
}

let create ?(record_events = true) ?sink ?probes ?(profile = false) ?faults
    ?(checkpoint_every = 0) ?(label = "Stepper")
    ~policy:(module P : Policy.POLICY) config =
  if checkpoint_every < 0 then
    invalid_arg (label ^ ": negative checkpoint_every");
  if config.n < 1 then invalid_arg (label ^ ": n must be >= 1");
  if config.speed < 1 then invalid_arg (label ^ ": speed must be >= 1");
  if config.delta < 1 then invalid_arg (label ^ ": delta must be >= 1");
  if Array.length config.bounds = 0 then invalid_arg (label ^ ": no colors");
  Array.iteri
    (fun c d ->
      if d < 1 then
        invalid_arg
          (Printf.sprintf "%s: bound of color %d is %d" label c d))
    config.bounds;
  if config.horizon < 0 then invalid_arg (label ^ ": negative horizon");
  let num_colors = Array.length config.bounds in
  let faults_compiled =
    match faults with
    | Some plan when not (Fault.is_empty plan) ->
        Some (Fault.compile plan ~n:config.n ~horizon:config.horizon)
    | Some _ | None -> None
  in
  let pool = Job_pool.create ~num_colors in
  let ledger = Ledger.create ~record_events ?sink ~delta:config.delta () in
  let sink = Ledger.sink ledger in
  Event_sink.write_header sink ~name:config.name ~delta:config.delta
    ~n:config.n ~speed:config.speed ~horizon:config.horizon
    ~bounds:config.bounds;
  let probes = Option.map (fun reg -> make_probes reg ~num_colors) probes in
  let prof = Profile.create phase_names in
  let pi = instantiate (module P) ~n:config.n ~delta:config.delta
      ~bounds:config.bounds in
  let assignment = Array.make config.n (-1) in
  {
    config;
    label;
    policy = (module P);
    pi;
    pool;
    ledger;
    sink;
    probes;
    prof;
    profile;
    fault_plan = faults;
    faults = faults_compiled;
    assignment;
    target = Array.make config.n (-1);
    view =
      {
        Policy.round = 0;
        mini_round = 0;
        n = config.n;
        delta = config.delta;
        bounds = config.bounds;
        assignment;
        pool;
      };
    offline = Array.make config.n false;
    checkpoint_every;
    base = None;
    offline_count = 0;
    round = 0;
    fed = [];
    fed_more = [];
    buffered_jobs = 0;
    accepted_jobs = 0;
    history_rounds = [||];
    history_requests = [||];
    history_len = 0;
    finished = false;
  }

let round t = t.round
let ledger t = t.ledger
let pool_pending t = Job_pool.total_pending t.pool
let buffered_jobs t = t.buffered_jobs
let accepted_jobs t = t.accepted_jobs
let policy_name t = t.pi.p_name
let config t = t.config
let finished t = t.finished
let assignment t = Array.copy t.assignment
let checkpoint_every t = t.checkpoint_every
let base_round t = match t.base with None -> 0 | Some ck -> ck.ck_round
let history_rounds t = t.history_len

(* The jobs of a fed chunk, each pair validated. *)
let rec chunk_jobs t ~num_colors acc = function
  | [] -> acc
  | (color, count) :: rest ->
      if color < 0 || color >= num_colors then
        invalid_arg
          (Printf.sprintf "%s: feed of unknown color %d (valid: 0..%d)" t.label
             color (num_colors - 1));
      if count < 0 then
        invalid_arg
          (Printf.sprintf "%s: feed of color %d with negative count %d" t.label
             color count);
      chunk_jobs t ~num_colors (acc + count) rest

let feed t request =
  if t.finished then invalid_arg (t.label ^ ": feed after finish");
  let jobs =
    chunk_jobs t ~num_colors:(Array.length t.config.bounds) 0 request
  in
  (* Later chunks are prepended (constant-time), so repeated feeds within
     one round stay linear; [buffered_request] restores fed order. *)
  (match (request, t.fed) with
  | [], _ -> ()
  | _, [] -> t.fed <- request
  | _, _ :: _ -> t.fed_more <- request :: t.fed_more);
  t.buffered_jobs <- t.buffered_jobs + jobs;
  t.accepted_jobs <- t.accepted_jobs + jobs

(* The fed-but-unconsumed arrivals, flattened in fed order. The common
   single-feed round returns the chunk itself, no copy. *)
let buffered_request t =
  match t.fed_more with
  | [] -> t.fed
  | more -> List.concat (t.fed :: List.rev more)

(* Already-normalized requests (strictly ascending colors, positive
   counts — everything [Instance.make] produces) are consumed as-is, so
   the [Engine.run] fast path pays one short list scan and no allocation. *)
let rec is_normalized prev = function
  | [] -> true
  | (color, count) :: rest ->
      count > 0 && color > prev && is_normalized color rest

let idle_mark = { Profile.mark_s = 0.0; mark_minor = 0.0 }

(* Phase timing, a no-op unless the stepper profiles. *)
let mark t = if t.profile then Profile.start () else idle_mark
let tick t index m = if t.profile then Profile.stop t.prof index m

let offline_list offline =
  let acc = ref [] in
  for location = Array.length offline - 1 downto 0 do
    if offline.(location) then acc := location :: !acc
  done;
  !acc

(* Materialize the current state as the new replay base and drop the
   arrival history it supersedes. Called between rounds (the fed buffer
   has been consumed), so the checkpoint is exactly "the state at the
   start of round [t.round]". *)
let take_checkpoint t =
  let pending = ref [] in
  for color = Array.length t.config.bounds - 1 downto 0 do
    match Job_pool.deadlines t.pool color with
    | [] -> ()
    | deadlines -> pending := (color, deadlines) :: !pending
  done;
  t.base <-
    Some
      {
        ck_round = t.round;
        ck_accepted = t.accepted_jobs;
        ck_pending = !pending;
        ck_assignment = Array.copy t.assignment;
        ck_offline = offline_list t.offline;
        ck_reconfigs = Ledger.reconfig_count t.ledger;
        ck_failed = Ledger.failed_reconfig_count t.ledger;
        ck_drops = Ledger.drop_count t.ledger;
        ck_execs = Ledger.exec_count t.ledger;
        ck_policy = t.pi.p_serialize ();
      };
  Array.fill t.history_requests 0 t.history_len [];
  t.history_len <- 0

(* Fault transitions, before the drop phase: repairs first, then
   crashes (a merged plan never has both for one location in one round).
   A crashed location loses its color. *)
let apply_faults t plan ~round =
  List.iter
    (fun location ->
      t.offline.(location) <- false;
      t.offline_count <- t.offline_count - 1;
      Ledger.record_repair t.ledger ~round ~location)
    (Fault.repairs_at plan ~round);
  List.iter
    (fun location ->
      t.offline.(location) <- true;
      t.offline_count <- t.offline_count + 1;
      t.assignment.(location) <- -1;
      Ledger.record_crash t.ledger ~round ~location)
    (Fault.crashes_at plan ~round)

let record_drops t (dropped : Job_pool.drops) ~round =
  if dropped.length > 0 && Log.debug_enabled () then
    Log.debug (fun m ->
        m "round %d: dropped %a" round
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
             (fun ppf (c, k) -> Format.fprintf ppf "%d:%d" c k))
          (Job_pool.drops_to_list dropped));
  for i = 0 to dropped.length - 1 do
    let color = dropped.colors.(i) in
    let count = dropped.jobs.(color) in
    Ledger.record_drop t.ledger ~round ~color ~count;
    match t.probes with
    | None -> ()
    | Some p -> Probe.observe_n p.drop_latency t.config.bounds.(color) ~n:count
  done

let rec add_arrivals pool bounds ~round = function
  | [] -> ()
  | (color, count) :: rest ->
      Job_pool.add pool ~color ~deadline:(round + bounds.(color)) ~count;
      add_arrivals pool bounds ~round rest

let bad_color t ~location ~round ~mini_round next =
  invalid_arg
    (Printf.sprintf
       "%s: policy %s returned color %d at location %d (round %d, mini-round \
        %d); valid colors are 0..%d"
       t.label t.pi.p_name next location round mini_round
       (Array.length t.config.bounds - 1))

(* Diff the policy's target against the physical assignment and pay for
   every location whose color changes. *)
let apply_target t ~round ~mini_round =
  let num_colors = Array.length t.config.bounds in
  let assignment = t.assignment and target = t.target in
  for location = 0 to t.config.n - 1 do
    let next = target.(location) in
    if next >= num_colors || next < -1 then
      bad_color t ~location ~round ~mini_round next;
    (* -1: inactive this mini-round, the physical color persists; an
       offline location ignores its target and pays nothing. *)
    if next >= 0 && (not t.offline.(location)) && assignment.(location) <> next
    then
      if
        match t.faults with
        | None -> false
        | Some plan -> Fault.reconfig_fails plan ~round ~location
      then begin
        Ledger.record_failed_reconfig t.ledger ~round ~mini_round ~location
          ~previous:assignment.(location) ~attempted:next;
        match t.probes with
        | None -> ()
        | Some p -> Probe.incr p.failed_reconfigs
      end
      else begin
        Ledger.record_reconfig t.ledger ~round ~mini_round ~location
          ~previous:assignment.(location) ~next;
        assignment.(location) <- next
      end
  done

(* Every active online location runs one job of its PHYSICAL color:
   after a failed reconfiguration that differs from the policy's
   target. *)
let execute t ~round ~mini_round =
  let assignment = t.assignment and target = t.target in
  for location = 0 to t.config.n - 1 do
    let color = assignment.(location) in
    if target.(location) >= 0 && color >= 0 && not t.offline.(location) then begin
      let deadline = Job_pool.execute_one t.pool ~color ~round in
      if deadline >= 0 then begin
        Ledger.record_execute t.ledger ~round ~mini_round ~location ~color
          ~deadline;
        match t.probes with
        | None -> ()
        | Some p -> Probe.observe p.exec_slack (deadline - round)
      end
    end
  done

let observe_round t p ~reconfigs0 =
  Probe.observe p.round_reconfigs (Ledger.reconfig_count t.ledger - reconfigs0);
  Probe.observe p.queue_depth (Job_pool.total_pending t.pool);
  Probe.observe p.offline_locations t.offline_count;
  for color = 0 to Array.length p.color_depth - 1 do
    Probe.set_gauge p.color_depth.(color) (Job_pool.pending t.pool color)
  done

let record_arrival t ~round request =
  let len = t.history_len in
  if len = Array.length t.history_rounds then begin
    let capacity = max 16 (2 * len) in
    let rounds = Array.make capacity 0 and requests = Array.make capacity [] in
    Array.blit t.history_rounds 0 rounds 0 len;
    Array.blit t.history_requests 0 requests 0 len;
    t.history_rounds <- rounds;
    t.history_requests <- requests
  end;
  t.history_rounds.(len) <- round;
  t.history_requests.(len) <- request;
  t.history_len <- len + 1

let step t =
  if t.finished then invalid_arg (t.label ^ ": step after finish");
  let pool = t.pool and ledger = t.ledger in
  let round = t.round in
  let reconfigs0 = Ledger.reconfig_count ledger in
  let drops0 = Ledger.drop_count ledger in
  let execs0 = Ledger.exec_count ledger in
  (match t.faults with None -> () | Some plan -> apply_faults t plan ~round);
  (* Drop phase: jobs with deadline = round are dropped. *)
  let m0 = mark t in
  let dropped = Job_pool.drop_expired pool ~round in
  record_drops t dropped ~round;
  t.pi.p_on_drop ~round ~dropped;
  tick t 0 m0;
  (* Arrival phase: consume the fed buffer. *)
  let m1 = mark t in
  let request =
    match buffered_request t with
    | [] -> []
    | request when is_normalized (-1) request -> request
    | request -> Types.normalize_request request
  in
  t.fed <- [];
  t.fed_more <- [];
  t.buffered_jobs <- 0;
  (match request with
  | [] -> ()
  | _ :: _ -> record_arrival t ~round request);
  add_arrivals pool t.config.bounds ~round request;
  t.pi.p_on_arrival ~round ~request;
  tick t 1 m1;
  (* Reconfiguration + execution, [speed] mini-rounds. *)
  for mini_round = 0 to t.config.speed - 1 do
    let m2 = mark t in
    t.view.round <- round;
    t.view.mini_round <- mini_round;
    Array.fill t.target 0 t.config.n (-1);
    t.pi.p_reconfigure t.view t.target;
    apply_target t ~round ~mini_round;
    tick t 2 m2;
    let m3 = mark t in
    execute t ~round ~mini_round;
    tick t 3 m3
  done;
  (* End-of-round observability: probes and the streamed snapshot. *)
  (match t.probes with None -> () | Some p -> observe_round t p ~reconfigs0);
  Event_sink.write_round t.sink ~round
    ~pending:(Job_pool.total_pending pool)
    ~reconfigs:(Ledger.reconfig_count ledger - reconfigs0)
    ~drops:(Ledger.drop_count ledger - drops0)
    ~execs:(Ledger.exec_count ledger - execs0);
  t.round <- round + 1;
  if t.checkpoint_every > 0 && t.round mod t.checkpoint_every = 0 then
    take_checkpoint t

let abort t ~reason =
  Event_sink.write_aborted t.sink ~round:t.round ~reason;
  Event_sink.flush t.sink

let finish t =
  if t.finished then invalid_arg (t.label ^ ": double finish");
  t.finished <- true;
  Event_sink.write_summary t.sink ~delta:t.config.delta
    ~reconfigs:(Ledger.reconfig_count t.ledger)
    ~failed:(Ledger.failed_reconfig_count t.ledger)
    ~drops:(Ledger.drop_count t.ledger)
    ~execs:(Ledger.exec_count t.ledger);
  Event_sink.flush t.sink;
  let stats =
    t.pi.p_stats ()
    @ (match t.probes with Some p -> Probe.snapshot p.registry | None -> [])
  in
  {
    ledger = t.ledger;
    stats;
    final_assignment = t.assignment;
    profile = (if t.profile then Some t.prof else None);
  }

(* ---- snapshot (rrs-snap/1 and /2) ----

   The document's source of truth for restore is the deterministic replay
   section: config + fault plan + a replay base + the arrivals to replay
   on top of it + the still buffered feed. In rrs-snap/1 the base is
   round 0 and the arrivals are the complete history; in rrs-snap/2 the
   base is the latest materialized-state checkpoint ([base_*] lines) and
   the arrivals are only those consumed since it. Either way the
   [check_*] lines carry the current materialized scheduler state (pool
   deadlines, assignment, offline set, ledger counters); [restore]
   replays and cross-checks them, so a snapshot that does not reproduce
   (nondeterministic policy, a policy-serialization bug, version drift)
   fails loudly instead of silently diverging. *)

let ints_to_json array =
  let buffer = Buffer.create 64 in
  Buffer.add_char buffer '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer (string_of_int v))
    array;
  Buffer.add_char buffer ']';
  Buffer.contents buffer

let request_fields request =
  let colors = Array.of_list (List.map fst request) in
  let counts = Array.of_list (List.map snd request) in
  Printf.sprintf "\"colors\":%s,\"counts\":%s" (ints_to_json colors)
    (ints_to_json counts)

let pending_fields deadlines =
  let ds = Array.of_list (List.map fst deadlines) in
  let ks = Array.of_list (List.map snd deadlines) in
  Printf.sprintf "\"deadlines\":%s,\"counts\":%s" (ints_to_json ds)
    (ints_to_json ks)

let snapshot ?version t =
  let version =
    match version with
    | Some v -> v
    | None -> if t.checkpoint_every > 0 || t.base <> None then 2 else 1
  in
  let schema = schema_of_version version in
  if version = 1 && t.base <> None then
    invalid_arg
      (t.label
     ^ ": cannot write rrs-snap/1 after checkpoint compaction (the arrival \
        history no longer reaches round 0); snapshot with version 2");
  let buffer = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer s;
                                   Buffer.add_char buffer '\n') fmt in
  (match version with
  | 1 ->
      line
        "{\"schema\":%s,\"name\":%s,\"delta\":%d,\"n\":%d,\"speed\":%d,\
         \"horizon\":%d,\"bounds\":%s,\"policy\":%s,\"round\":%d,\
         \"accepted\":%d}"
        (Json.escape schema)
        (Json.escape t.config.name)
        t.config.delta t.config.n t.config.speed t.config.horizon
        (ints_to_json t.config.bounds)
        (Json.escape t.pi.p_name)
        t.round t.accepted_jobs
  | _ ->
      line
        "{\"schema\":%s,\"name\":%s,\"delta\":%d,\"n\":%d,\"speed\":%d,\
         \"horizon\":%d,\"bounds\":%s,\"policy\":%s,\"round\":%d,\
         \"accepted\":%d,\"checkpoint_every\":%d}"
        (Json.escape schema)
        (Json.escape t.config.name)
        t.config.delta t.config.n t.config.speed t.config.horizon
        (ints_to_json t.config.bounds)
        (Json.escape t.pi.p_name)
        t.round t.accepted_jobs t.checkpoint_every);
  (match t.fault_plan with
  | None -> ()
  | Some plan ->
      List.iter
        (fun { Fault.location; from_round; until_round } ->
          line
            "{\"type\":\"fault_crash\",\"location\":%d,\"from\":%d,\
             \"until\":%d}"
            location from_round until_round)
        plan.Fault.crashes;
      List.iter
        (fun { Fault.rf_round; rf_location } ->
          line "{\"type\":\"fault_reconfig\",\"round\":%d,\"location\":%d}"
            rf_round rf_location)
        plan.Fault.reconfig_failures);
  (* The /2 replay base: restore seeds this state directly instead of
     replaying rounds [0..base.round-1]. *)
  (match t.base with
  | None -> ()
  | Some ck ->
      line "{\"type\":\"base\",\"round\":%d,\"accepted\":%d}" ck.ck_round
        ck.ck_accepted;
      List.iter
        (fun (color, deadlines) ->
          line "{\"type\":\"base_pending\",\"color\":%d,%s}" color
            (pending_fields deadlines))
        ck.ck_pending;
      line "{\"type\":\"base_assignment\",\"colors\":%s}"
        (ints_to_json ck.ck_assignment);
      if ck.ck_offline <> [] then
        line "{\"type\":\"base_offline\",\"locations\":%s}"
          (ints_to_json (Array.of_list ck.ck_offline));
      line
        "{\"type\":\"base_counters\",\"reconfigs\":%d,\"failed\":%d,\
         \"drops\":%d,\"execs\":%d}"
        ck.ck_reconfigs ck.ck_failed ck.ck_drops ck.ck_execs;
      line "{\"type\":\"base_policy\",\"blob\":%s}" (Json.escape ck.ck_policy));
  for i = 0 to t.history_len - 1 do
    line "{\"type\":\"arrival\",\"round\":%d,%s}" t.history_rounds.(i)
      (request_fields t.history_requests.(i))
  done;
  (match buffered_request t with
  | [] -> ()
  | request -> line "{\"type\":\"buffered\",%s}" (request_fields request));
  Array.iteri
    (fun color _ ->
      match Job_pool.deadlines t.pool color with
      | [] -> ()
      | deadlines ->
          line "{\"type\":\"check_pending\",\"color\":%d,%s}" color
            (pending_fields deadlines))
    t.config.bounds;
  line "{\"type\":\"check_assignment\",\"colors\":%s}"
    (ints_to_json t.assignment);
  (match offline_list t.offline with
  | [] -> ()
  | offline ->
      line "{\"type\":\"check_offline\",\"locations\":%s}"
        (ints_to_json (Array.of_list offline)));
  line
    "{\"type\":\"check_counters\",\"reconfigs\":%d,\"failed\":%d,\
     \"drops\":%d,\"execs\":%d,\"cost\":%d}"
    (Ledger.reconfig_count t.ledger)
    (Ledger.failed_reconfig_count t.ledger)
    (Ledger.drop_count t.ledger)
    (Ledger.exec_count t.ledger)
    (Ledger.total_cost t.ledger);
  line "{\"type\":\"end\"}";
  Buffer.contents buffer

let save ?version t ~path =
  (* Atomic, as Trace.save: a drain interrupted mid-write must never
     leave a torn snapshot behind. *)
  let temp = path ^ ".tmp" in
  let out = open_out temp in
  Fun.protect
    ~finally:(fun () -> close_out out)
    (fun () -> output_string out (snapshot ?version t));
  Sys.rename temp path

(* ---- restore: replay + cross-check ---- *)

type parsed_snapshot = {
  ps_version : int; (* 1 or 2, from the schema line *)
  ps_checkpoint_every : int; (* 0 in /1 documents *)
  ps_config : config;
  ps_policy : string;
  ps_round : int;
  ps_accepted : int;
  ps_faults : Fault.plan option;
  ps_base : checkpoint option; (* the /2 replay base, when present *)
  ps_arrivals : (int * Types.request) list; (* chronological *)
  ps_buffered : Types.request;
  ps_pending : (int * (int * int) list) list; (* color -> deadline multiset *)
  ps_assignment : int array;
  ps_offline : int list;
  ps_counters : int * int * int * int; (* reconfigs, failed, drops, execs *)
}

let parse_request fields =
  let colors = Json.ints_field fields "colors" in
  let counts = Json.ints_field fields "counts" in
  if Array.length colors <> Array.length counts then
    raise (Json.Parse_error "colors/counts length mismatch");
  Array.to_list (Array.map2 (fun c k -> (c, k)) colors counts)

let parse_snapshot text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun line -> String.trim line <> "")
  in
  match lines with
  | [] -> Error "empty snapshot (no schema header)"
  | header :: rest -> (
      try
        let fields = Json.parse_fields header in
        let schema = Json.str_field fields "schema" in
        if schema <> snapshot_schema && schema <> snapshot_schema_v2 then
          Error
            (Printf.sprintf "unsupported snapshot schema %S (want %S or %S)"
               schema snapshot_schema snapshot_schema_v2)
        else begin
          let version = if schema = snapshot_schema then 1 else 2 in
          let ps_config =
            {
              name = Json.str_field fields "name";
              delta = Json.int_field fields "delta";
              n = Json.int_field fields "n";
              speed = Json.int_field fields "speed";
              horizon = Json.int_field fields "horizon";
              bounds = Json.ints_field fields "bounds";
            }
          in
          let ps_policy = Json.str_field fields "policy" in
          let ps_round = Json.int_field fields "round" in
          let ps_accepted = Json.int_field fields "accepted" in
          let ps_checkpoint_every =
            if version = 1 then 0
            else Json.int_field fields "checkpoint_every"
          in
          let crashes = ref [] and fault_reconfigs = ref [] in
          let arrivals = ref [] and buffered = ref [] in
          let pending = ref [] and offline = ref [] in
          let assignment = ref None and counters = ref None in
          let base_header = ref None and base_pending = ref [] in
          let base_assignment = ref None and base_offline = ref [] in
          let base_counters = ref None and base_policy = ref None in
          let only_v2 kind =
            if version = 1 then
              raise
                (Json.Parse_error
                   (Printf.sprintf "%S line in an rrs-snap/1 document" kind))
          in
          let ended = ref false in
          List.iteri
            (fun index line ->
              if !ended then
                raise
                  (Json.Parse_error
                     (Printf.sprintf "line %d: content after end" (index + 2)));
              let fields = Json.parse_fields line in
              match Json.str_field fields "type" with
              | "fault_crash" ->
                  crashes :=
                    {
                      Fault.location = Json.int_field fields "location";
                      from_round = Json.int_field fields "from";
                      until_round = Json.int_field fields "until";
                    }
                    :: !crashes
              | "fault_reconfig" ->
                  fault_reconfigs :=
                    {
                      Fault.rf_round = Json.int_field fields "round";
                      rf_location = Json.int_field fields "location";
                    }
                    :: !fault_reconfigs
              | "arrival" ->
                  arrivals :=
                    (Json.int_field fields "round", parse_request fields)
                    :: !arrivals
              | "buffered" -> buffered := parse_request fields
              | "base" ->
                  only_v2 "base";
                  base_header :=
                    Some
                      ( Json.int_field fields "round",
                        Json.int_field fields "accepted" )
              | "base_pending" ->
                  only_v2 "base_pending";
                  let color = Json.int_field fields "color" in
                  let ds = Json.ints_field fields "deadlines" in
                  let ks = Json.ints_field fields "counts" in
                  if Array.length ds <> Array.length ks then
                    raise
                      (Json.Parse_error "deadlines/counts length mismatch");
                  base_pending :=
                    ( color,
                      Array.to_list (Array.map2 (fun d k -> (d, k)) ds ks) )
                    :: !base_pending
              | "base_assignment" ->
                  only_v2 "base_assignment";
                  base_assignment := Some (Json.ints_field fields "colors")
              | "base_offline" ->
                  only_v2 "base_offline";
                  base_offline :=
                    Array.to_list (Json.ints_field fields "locations")
              | "base_counters" ->
                  only_v2 "base_counters";
                  base_counters :=
                    Some
                      ( Json.int_field fields "reconfigs",
                        Json.int_field fields "failed",
                        Json.int_field fields "drops",
                        Json.int_field fields "execs" )
              | "base_policy" ->
                  only_v2 "base_policy";
                  base_policy := Some (Json.str_field fields "blob")
              | "check_pending" ->
                  let color = Json.int_field fields "color" in
                  let ds = Json.ints_field fields "deadlines" in
                  let ks = Json.ints_field fields "counts" in
                  if Array.length ds <> Array.length ks then
                    raise
                      (Json.Parse_error "deadlines/counts length mismatch");
                  pending :=
                    ( color,
                      Array.to_list (Array.map2 (fun d k -> (d, k)) ds ks) )
                    :: !pending
              | "check_assignment" ->
                  assignment := Some (Json.ints_field fields "colors")
              | "check_offline" ->
                  offline :=
                    Array.to_list (Json.ints_field fields "locations")
              | "check_counters" ->
                  counters :=
                    Some
                      ( Json.int_field fields "reconfigs",
                        Json.int_field fields "failed",
                        Json.int_field fields "drops",
                        Json.int_field fields "execs" )
              | "end" -> ended := true
              | other ->
                  raise
                    (Json.Parse_error
                       (Printf.sprintf "line %d: unknown snapshot line %S"
                          (index + 2) other)))
            rest;
          if not !ended then Error "truncated snapshot (no end line)"
          else
            let base =
              match !base_header with
              | None ->
                  if
                    !base_pending <> [] || !base_assignment <> None
                    || !base_offline <> [] || !base_counters <> None
                    || !base_policy <> None
                  then Error "base_* lines without a base line"
                  else Ok None
              | Some (ck_round, ck_accepted) -> (
                  match (!base_assignment, !base_counters, !base_policy) with
                  | None, _, _ -> Error "snapshot missing base_assignment"
                  | _, None, _ -> Error "snapshot missing base_counters"
                  | _, _, None -> Error "snapshot missing base_policy"
                  | ( Some ck_assignment,
                      Some (ck_reconfigs, ck_failed, ck_drops, ck_execs),
                      Some ck_policy ) ->
                      Ok
                        (Some
                           {
                             ck_round;
                             ck_accepted;
                             ck_pending = List.rev !base_pending;
                             ck_assignment;
                             ck_offline = !base_offline;
                             ck_reconfigs;
                             ck_failed;
                             ck_drops;
                             ck_execs;
                             ck_policy;
                           }))
            in
            match (base, !assignment, !counters) with
            | Error message, _, _ -> Error message
            | _, None, _ -> Error "snapshot missing check_assignment"
            | _, _, None -> Error "snapshot missing check_counters"
            | Ok base, Some assignment, Some counters ->
                let faults =
                  if !crashes = [] && !fault_reconfigs = [] then None
                  else
                    Some
                      (Fault.make ~name:"restored"
                         ~crashes:(List.rev !crashes)
                         ~reconfig_failures:(List.rev !fault_reconfigs) ())
                in
                Ok
                  {
                    ps_version = version;
                    ps_checkpoint_every;
                    ps_config;
                    ps_policy;
                    ps_round;
                    ps_accepted;
                    ps_faults = faults;
                    ps_base = base;
                    ps_arrivals = List.rev !arrivals;
                    ps_buffered = !buffered;
                    ps_pending = List.rev !pending;
                    ps_assignment = assignment;
                    ps_offline = !offline;
                    ps_counters = counters;
                  }
        end
      with
      | Json.Parse_error message -> Error message
      | Fault.Invalid message -> Error message)

let check message condition = if condition then Ok () else Error message

let ( let* ) = Result.bind

let verify t ps =
  let reconfigs, failed, drops, execs = ps.ps_counters in
  let* () =
    check
      (Printf.sprintf
         "snapshot check failed: replayed counters \
          (reconfigs=%d failed=%d drops=%d execs=%d) differ from snapshot \
          (reconfigs=%d failed=%d drops=%d execs=%d)"
         (Ledger.reconfig_count t.ledger)
         (Ledger.failed_reconfig_count t.ledger)
         (Ledger.drop_count t.ledger)
         (Ledger.exec_count t.ledger)
         reconfigs failed drops execs)
      (Ledger.reconfig_count t.ledger = reconfigs
      && Ledger.failed_reconfig_count t.ledger = failed
      && Ledger.drop_count t.ledger = drops
      && Ledger.exec_count t.ledger = execs)
  in
  let* () =
    check "snapshot check failed: accepted-job count differs"
      (t.accepted_jobs = ps.ps_accepted)
  in
  let* () =
    check "snapshot check failed: assignment differs"
      (t.assignment = ps.ps_assignment)
  in
  let offline =
    Array.to_list t.offline
    |> List.mapi (fun i o -> if o then Some i else None)
    |> List.filter_map Fun.id
  in
  let* () =
    check "snapshot check failed: offline set differs"
      (offline = ps.ps_offline)
  in
  let rec check_pending = function
    | [] -> Ok ()
    | (color, deadlines) :: rest ->
        if
          color >= 0
          && color < Array.length t.config.bounds
          && Job_pool.deadlines t.pool color = deadlines
        then check_pending rest
        else
          Error
            (Printf.sprintf
               "snapshot check failed: pending multiset of color %d differs"
               color)
  in
  let* () = check_pending ps.ps_pending in
  (* Every color absent from the snapshot must be idle after replay. *)
  let listed = List.map fst ps.ps_pending in
  let rec check_idle color =
    if color >= Array.length t.config.bounds then Ok ()
    else if List.mem color listed || Job_pool.pending t.pool color = 0 then
      check_idle (color + 1)
    else
      Error
        (Printf.sprintf
           "snapshot check failed: color %d pending after replay but idle in \
            snapshot"
           color)
  in
  check_idle 0

(* Install a checkpoint into a freshly created stepper: re-add the
   pending jobs (deadlines are >= ck_round >= 0, so a fresh pool accepts
   them; the next [step]'s drop phase advances the wheel), blit the
   assignment/offline sets, seed the ledger counters, apply the policy
   blob, and mark the trace as checkpoint-seeded so readers can reconcile
   the partial event stream. *)
let seed_checkpoint t ck =
  if Array.length ck.ck_assignment <> t.config.n then
    failwith "base_assignment length differs from n";
  List.iter
    (fun (color, deadlines) ->
      if color < 0 || color >= Array.length t.config.bounds then
        failwith (Printf.sprintf "base_pending of unknown color %d" color);
      List.iter
        (fun (deadline, count) -> Job_pool.add t.pool ~color ~deadline ~count)
        deadlines)
    ck.ck_pending;
  Array.iteri
    (fun location c -> t.assignment.(location) <- (if c < 0 then -1 else c))
    ck.ck_assignment;
  List.iter
    (fun location ->
      if location < 0 || location >= t.config.n then
        failwith
          (Printf.sprintf "base_offline location %d out of range" location);
      if not t.offline.(location) then begin
        t.offline.(location) <- true;
        t.offline_count <- t.offline_count + 1
      end)
    ck.ck_offline;
  Ledger.seed t.ledger ~reconfigs:ck.ck_reconfigs ~failed:ck.ck_failed
    ~drops:ck.ck_drops ~execs:ck.ck_execs;
  t.round <- ck.ck_round;
  t.accepted_jobs <- ck.ck_accepted;
  t.pi.p_deserialize ck.ck_policy;
  t.base <- Some ck;
  Event_sink.write_restored t.sink ~round:ck.ck_round
    ~reconfigs:ck.ck_reconfigs ~failed:ck.ck_failed ~drops:ck.ck_drops
    ~execs:ck.ck_execs

let restore ?record_events ?sink ?probes ?profile ?label ?checkpoint_every
    ~policy:(module P : Policy.POLICY) text =
  let* ps = parse_snapshot text in
  let* () =
    check
      (Printf.sprintf "snapshot was taken under policy %S, not %S" ps.ps_policy
         P.name)
      (ps.ps_policy = P.name)
  in
  match
    let t =
      create ?record_events ?sink ?probes ?profile ?faults:ps.ps_faults ?label
        ~checkpoint_every:
          (match checkpoint_every with
          | Some k -> k
          | None -> ps.ps_checkpoint_every)
        ~policy:(module P) ps.ps_config
    in
    (* Deterministic replay from the base (round 0 for /1, the embedded
       checkpoint for /2). The replayed events are re-emitted into the
       (fresh) sink, so the restored stream is a self-consistent
       rrs-events document — complete for /1, checkpoint-marked for /2. *)
    let start =
      match ps.ps_base with
      | None -> 0
      | Some ck ->
          if ck.ck_round > ps.ps_round then
            failwith
              (Printf.sprintf "base round %d > snapshot round %d" ck.ck_round
                 ps.ps_round);
          seed_checkpoint t ck;
          ck.ck_round
    in
    let arrivals = ref ps.ps_arrivals in
    for round = start to ps.ps_round - 1 do
      (match !arrivals with
      | (r, request) :: rest when r = round ->
          feed t request;
          arrivals := rest
      | _ -> ());
      step t
    done;
    (match !arrivals with
    | [] -> ()
    | (r, _) :: _ ->
        failwith
          (Printf.sprintf
             "snapshot arrival at round %d outside replay range %d..%d" r start
             (ps.ps_round - 1)));
    feed t ps.ps_buffered;
    t
  with
  | t ->
      let* () = verify t ps in
      Ok t
  | exception e -> Error ("restore: " ^ Printexc.to_string e)
