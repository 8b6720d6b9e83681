(* engine-batch: one uniform instance generated from the seed, run
   through [Stepper] (create / feed / step / finish, no event sink) under
   dlru-edf, edf and dlru, one after another, in one domain. Nothing of
   the wire or server layers runs. *)

module Stepper = Rrs_sim.Stepper
module Instance = Rrs_sim.Instance
module Ledger = Rrs_sim.Ledger

let policies = [ "dlru-edf"; "edf"; "dlru" ]
let n = 16

let spec ~seed ~horizon =
  Printf.sprintf "uniform:colors=32,load=0.9,horizon=%d,seed=%d" horizon seed

let horizon = 20000

let find_policy name =
  match Rrs_core.Policies.find name with
  | Some p -> p
  | None -> Util.fail "unknown policy %s" name

let generate ~seed ~horizon =
  match Rrs_workload.Spec.parse (spec ~seed ~horizon) with
  | Ok instance -> instance
  | Error message -> Util.fail "workload spec: %s" message

let config (i : Instance.t) =
  { Stepper.name = i.name; delta = i.delta; bounds = i.bounds; n; speed = 1;
    horizon = i.horizon }

type setup = {
  setup_s : float;  (** generation + stepper creation *)
  gen_s : float;
  gen_minor_words : float;
  jobs : int;
  hwm_kb : int;  (** VmHWM of the process *)
  prefix_conserved : bool;  (** the set-up child's prefix loops conserved jobs *)
}

(* Generation plus creating the three steppers: what a user pays before
   the first round. *)
let set_up ~seed =
  let t0 = Util.now_s () and w0 = Gc.minor_words () in
  let span = Spans.enter "gen" in
  let instance = generate ~seed ~horizon in
  Spans.leave span;
  let gen_s = Util.now_s () -. t0 and gen_minor_words = Gc.minor_words () -. w0 in
  List.iter
    (fun p ->
      ignore
        (Stepper.create ~record_events:false ~policy:(find_policy p)
           (config instance)))
    policies;
  let setup_s = Util.now_s () -. t0 in
  ( instance,
    { setup_s; gen_s; gen_minor_words; jobs = Instance.total_jobs instance;
      hwm_kb = Procs.self_vmhwm_kb (); prefix_conserved = true } )

(* The set-ups of one run use instances from seeds derived from the
   run's seed, the first being the seed itself: memory and set-up time
   depend on the instance through where the major GC stands when the
   heap peaks, so the median over several instances is what repeats. *)
let setup_seed ~seed i = seed + (i * 1_000_003)

(* Outcome of one step loop over the whole instance. *)
type loop = {
  policy : string;
  wall_s : float;
  minor_words : float;
  step_p50_ns : float;
  ledger : int * int * int * int;  (** reconfigs, drops, execs, cost *)
  conserved : bool;  (** generated = execs + drops + pending + buffered *)
}

(* Jobs generated for the first [rounds] rounds. *)
let jobs_before (instance : Instance.t) rounds =
  let jobs = ref 0 in
  for r = 0 to rounds - 1 do
    List.iter (fun (_, k) -> jobs := !jobs + k) instance.requests.(r)
  done;
  !jobs

(* The step loop over the first [rounds] rounds (default: all). *)
let run_loop ?(profile = false) ?rounds (instance : Instance.t) policy =
  let rounds = Option.value rounds ~default:instance.horizon in
  let w0 = Gc.minor_words () and t0 = Util.now_s () in
  let loop_span = Spans.enter ("stepper.loop." ^ policy) in
  let stepper =
    Stepper.create ~record_events:false ~profile ~policy:(find_policy policy)
      (config instance)
  in
  let step_times = Array.make rounds 0 in
  for r = 0 to rounds - 1 do
    (match instance.requests.(r) with [] -> () | req -> Stepper.feed stepper req);
    let span = Spans.enter ~parent:loop_span "stepper.step" in
    let s0 = Util.now_ns () in
    Stepper.step stepper;
    step_times.(r) <- Util.now_ns () - s0;
    Spans.leave span
  done;
  let pending = Stepper.pool_pending stepper
  and buffered = Stepper.buffered_jobs stepper in
  let result = Stepper.finish stepper in
  Spans.leave loop_span;
  let wall_s = Util.now_s () -. t0 and minor_words = Gc.minor_words () -. w0 in
  let l = result.Stepper.ledger in
  let execs = Ledger.exec_count l and drops = Ledger.drop_count l in
  ( {
      policy;
      wall_s;
      minor_words;
      step_p50_ns =
        Util.median (Array.map float_of_int step_times);
      ledger = (Ledger.reconfig_count l, drops, execs, Ledger.total_cost l);
      conserved = jobs_before instance rounds = execs + drops + pending + buffered;
    },
    result )

(* [set_up] as the whole of a fresh process, as a user pays it: an
   empty heap and a peak RSS of its own. After the set-up the process
   runs every policy's step loop over the first [prefix_rounds] rounds,
   so that its VmHWM covers stepping too. [rrsbench.exe --engine-setup
   SEED] runs [print_set_up]; [set_up_fresh] starts it and reads the
   line it prints. *)
let prefix_rounds = 5000

let print_set_up ~seed =
  let instance, s = set_up ~seed in
  let conserved =
    List.for_all (fun p -> (fst (run_loop ~rounds:prefix_rounds instance p)).conserved) policies
  in
  Printf.printf "%.17g %.17g %.17g %d %d %b\n" s.setup_s s.gen_s s.gen_minor_words s.jobs
    (Procs.self_vmhwm_kb ()) conserved

let set_up_fresh ~seed =
  let r, w = Unix.pipe ~cloexec:true () in
  let child =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () ->
        Procs.register ~label:"engine set-up"
          (Unix.create_process Sys.executable_name
             [| Sys.executable_name; "--engine-setup"; string_of_int seed |]
             Unix.stdin w Unix.stderr))
  in
  let text = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  Procs.kill child;
  match
    Scanf.sscanf_opt text "%f %f %f %d %d %B"
      (fun setup_s gen_s gen_minor_words jobs hwm_kb prefix_conserved ->
        { setup_s; gen_s; gen_minor_words; jobs; hwm_kb; prefix_conserved })
  with
  | Some s -> s
  | None -> Util.fail "engine set-up child failed"

(* [Schedule.validate] on a short prefix instance from the same seed,
   for every policy: the schedule the engine records must replay. *)
let validate_prefix ~seed =
  let instance = generate ~seed ~horizon:400 in
  List.filter_map
    (fun policy ->
      let result =
        Rrs_sim.Engine.run ~record_events:true ~n ~policy:(find_policy policy) instance
      in
      let schedule =
        Rrs_sim.Schedule.of_run ~instance ~n ~speed:1 result.Rrs_sim.Engine.ledger
      in
      match Rrs_sim.Schedule.validate schedule with
      | Ok () -> None
      | Error (first :: _) -> Some (Printf.sprintf "%s: invalid schedule: %s" policy first)
      | Error [] -> Some (policy ^ ": invalid schedule"))
    policies

(* One cycle = the three step loops in turn. *)
type cycle = { loops : loop list; traced : bool; cpu_s : float }

let cycle_wall c = List.fold_left (fun acc l -> acc +. l.wall_s) 0. c.loops
let cycle_rounds instance = List.length policies * instance.Instance.horizon

let run_cycle ~traced instance =
  let cpu0 = Util.self_cpu_s () in
  let loops = List.map (fun p -> fst (run_loop instance p)) policies in
  { loops; traced; cpu_s = Util.self_cpu_s () -. cpu0 }

(* The stepper's own phase profile of one dlru-edf loop: ns per round of
   each phase. *)
let phase_profile instance =
  let _, result = run_loop ~profile:true instance "dlru-edf" in
  match result.Stepper.profile with
  | None -> []
  | Some p ->
      List.map
        (fun (name, wall_s, _) ->
          (name, wall_s *. 1e9 /. float_of_int instance.Instance.horizon))
        (Rrs_obs.Profile.fields p)

type outcome = {
  instance : Instance.t;  (** generated from the seed *)
  setups : setup list;
  cycles : cycle list;
  failures : string list;
  attempted : int;
  peak_rss_kb : int;
}

(* Set up [fresh_setups] times in fresh processes, half before the
   cycles and half after, so that the median spans the run; peak RSS is
   the median of their VmHWM (none: the run's own set-up and VmHWM are
   the ones reported). Then run whole cycles until [seconds] have
   passed (at least [min_cycles]). [trace] decides per cycle whether
   spans are recorded. Every loop's ledger must be conserved and equal
   to the first cycle's for that policy. *)
let run ~seed ~seconds ~fresh_setups ~min_cycles ~trace =
  let before = (fresh_setups + 1) / 2 in
  let fresh_range lo hi = List.init (hi - lo) (fun i -> set_up_fresh ~seed:(setup_seed ~seed (lo + i))) in
  let fresh_before = fresh_range 0 before in
  let instance, own = set_up ~seed in
  let failures = ref (validate_prefix ~seed) in
  let reference = Hashtbl.create 3 in
  let deadline = Util.now_s () +. seconds in
  let rec go k acc =
    if k >= min_cycles && Util.now_s () >= deadline then List.rev acc
    else begin
      let traced = trace k in
      let saved = !Spans.current in
      if not traced then Spans.current := None;
      let c = run_cycle ~traced instance in
      Spans.current := saved;
      Printf.eprintf "engine-batch cycle %d%s: %.0f rounds/s\n%!" k
        (if traced then " (traced)" else "")
        (float_of_int (cycle_rounds instance) /. cycle_wall c);
      List.iter
        (fun l ->
          if not l.conserved then
            failures := Printf.sprintf "%s: job conservation violated" l.policy :: !failures;
          match Hashtbl.find_opt reference l.policy with
          | None -> Hashtbl.add reference l.policy l.ledger
          | Some ledger when ledger <> l.ledger ->
              failures := Printf.sprintf "%s: ledger differs between cycles" l.policy :: !failures
          | Some _ -> ())
        c.loops;
      go (k + 1) (c :: acc)
    end
  in
  let cycles = go 0 [] in
  let fresh = fresh_before @ fresh_range before fresh_setups in
  List.iteri
    (fun i s ->
      if not s.prefix_conserved then
        failures := Printf.sprintf "set-up %d: job conservation violated" i :: !failures)
    fresh;
  {
    instance;
    setups = (if fresh = [] then [ own ] else fresh);
    cycles;
    failures = List.rev !failures;
    attempted = List.length policies * (1 + List.length cycles + List.length fresh);
    peak_rss_kb =
      (if fresh = [] then Procs.self_vmhwm_kb ()
       else int_of_float (Util.median_list (List.map (fun s -> float_of_int s.hwm_kb) fresh)));
  }

(* The gated figures, from untraced cycles only. *)
let end_to_end o =
  let instance = o.instance in
  let plain = List.filter (fun c -> not c.traced) o.cycles in
  let rounds = float_of_int (cycle_rounds instance) in
  let per_cycle f = Util.median_list (List.map f plain) in
  [
    Util.metric "setup_s" "s" (Util.median_list (List.map (fun s -> s.setup_s) o.setups));
    Util.metric "peak_rss_mb" "MiB" (float_of_int o.peak_rss_kb /. 1024.);
    Util.metric "sim_rounds_per_s" "1/s" (per_cycle (fun c -> rounds /. cycle_wall c));
    (* The mean over the three policies of the median round, so that a
       change to any one policy shows. *)
    Util.metric "round_p50_us" "us"
      (per_cycle (fun c ->
           List.fold_left (fun acc l -> acc +. l.step_p50_ns) 0. c.loops
           /. float_of_int (List.length c.loops) /. 1e3));
    Util.metric "server_cpu_us_per_round" "us"
      (per_cycle (fun c -> c.cpu_s *. 1e6 /. rounds));
  ]
