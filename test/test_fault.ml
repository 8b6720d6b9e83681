(* Fault-layer tests: plan normalization and serialization, crash/repair
   and failed-reconfiguration engine semantics, empty-plan byte-identity,
   the abort record on policy exceptions, sweep failure isolation with
   bounded retry, and ledger conservation under random fault plans. *)

module Instance = Rrs_sim.Instance
module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger
module Schedule = Rrs_sim.Schedule
module Fault = Rrs_sim.Fault
module Fault_gen = Rrs_workload.Fault_gen
module Event_sink = Rrs_sim.Event_sink
module Sweep = Rrs_sim.Sweep
module Report = Rrs_stats.Report
module H = Test_helpers

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let policy : (module Rrs_sim.Policy.POLICY) = (module Rrs_core.Policy_lru_edf)

(* The paper policies cache [n/2] colors, so with [n = 1] they never
   configure anything; the single-location fault tests need a policy that
   actually attempts reconfigurations. Greedy: always want color 0. *)
let greedy_policy : (module Rrs_sim.Policy.POLICY) =
  (module struct
    type t = unit

    let name = "greedy0"
    let create ~n:_ ~delta:_ ~bounds:_ = ()
    let on_drop _ ~round:_ ~dropped:_ = ()
    let on_arrival _ ~round:_ ~request:_ = ()
    let reconfigure () (_ : Rrs_sim.Policy.view) ~target =
      Array.fill target 0 (Array.length target) 0
    let stats () = []
    let serialize () = "{}"
    let deserialize () _ = ()
  end)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let crash ~location ~from_round ~until_round =
  { Fault.location; from_round; until_round }

let fail_at ~round ~location = { Fault.rf_round = round; rf_location = location }

(* ---- plan construction ---- *)

let test_make_normalizes () =
  let plan =
    Fault.make
      ~crashes:
        [
          crash ~location:1 ~from_round:0 ~until_round:3;
          crash ~location:0 ~from_round:5 ~until_round:8;
          crash ~location:0 ~from_round:2 ~until_round:5; (* touches [5,8) *)
        ]
      ~reconfig_failures:
        [
          fail_at ~round:4 ~location:1;
          fail_at ~round:1 ~location:0;
          fail_at ~round:4 ~location:1; (* duplicate *)
        ]
      ()
  in
  (* Location 0's touching windows merged into [2, 8). *)
  check "crash windows" 2 (Fault.crash_count plan);
  check "offline rounds" (6 + 3) (Fault.offline_location_rounds plan);
  check "failures deduped" 2 (Fault.reconfig_failure_count plan);
  check_bool "not empty" false (Fault.is_empty plan);
  check_bool "empty is empty" true (Fault.is_empty Fault.empty)

let test_make_invalid () =
  let invalid f = match f () with
    | exception Fault.Invalid _ -> ()
    | _ -> Alcotest.fail "expected Fault.Invalid"
  in
  invalid (fun () ->
      Fault.make
        ~crashes:[ crash ~location:0 ~from_round:3 ~until_round:3 ]
        ~reconfig_failures:[] ());
  invalid (fun () ->
      Fault.make
        ~crashes:[ crash ~location:(-1) ~from_round:0 ~until_round:2 ]
        ~reconfig_failures:[] ());
  invalid (fun () ->
      Fault.make ~crashes:[]
        ~reconfig_failures:[ fail_at ~round:(-2) ~location:0 ]
        ())

let test_roundtrip () =
  let plan =
    Fault.make ~name:"rt \"quoted\"" ~seed:42
      ~crashes:[ crash ~location:2 ~from_round:1 ~until_round:9 ]
      ~reconfig_failures:[ fail_at ~round:3 ~location:0 ]
      ()
  in
  (match Fault.parse (Fault.to_string plan) with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok plan' ->
      check_string "serialization fixpoint" (Fault.to_string plan)
        (Fault.to_string plan'));
  let path = Filename.temp_file "rrs_faults" ".json" in
  Fault.save plan ~path;
  (match Fault.load ~path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok plan' ->
      check_string "save/load fixpoint" (Fault.to_string plan)
        (Fault.to_string plan'));
  Sys.remove path

let test_parse_errors () =
  let expect_error s =
    match Fault.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse accepted %S" s
  in
  expect_error "";
  expect_error "{\"schema\":\"rrs-faults/999\",\"name\":\"x\",\"seed\":0}\n";
  expect_error
    "{\"schema\":\"rrs-faults/1\",\"name\":\"x\",\"seed\":0}\n\
     {\"type\":\"mystery\",\"location\":0}\n";
  expect_error
    "{\"schema\":\"rrs-faults/1\",\"name\":\"x\",\"seed\":0}\n\
     {\"type\":\"crash\",\"location\":0,\"from\":5,\"until\":5}\n"

let test_compile_bounds () =
  let plan =
    Fault.make
      ~crashes:[ crash ~location:3 ~from_round:0 ~until_round:4 ]
      ~reconfig_failures:[] ()
  in
  (match Fault.compile plan ~n:2 ~horizon:10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "location >= n must raise");
  (* A window past the horizon is clipped: crash fires, repair never
     does. *)
  let compiled = Fault.compile plan ~n:8 ~horizon:2 in
  check "clipped crash" 1 (List.length (Fault.crashes_at compiled ~round:0));
  for round = 0 to 1 do
    check
      (Printf.sprintf "no repair at %d" round)
      0
      (List.length (Fault.repairs_at compiled ~round))
  done

(* ---- engine semantics ---- *)

let small_instance ?(horizon = 96) ?(seed = 5) () =
  Rrs_workload.Random_workloads.uniform ~seed ~colors:6 ~delta:3
    ~bound_log_range:(0, 3) ~horizon ~load:0.9 ~rate_limited:true ()

let trace_to_file ?faults ~n instance =
  let path = Filename.temp_file "rrs_fault_events" ".jsonl" in
  let channel = open_out path in
  let result =
    Fun.protect
      ~finally:(fun () -> close_out channel)
      (fun () ->
        Engine.run ~sink:(Event_sink.Jsonl channel) ?faults ~n ~policy
          instance)
  in
  (path, result)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_empty_plan_byte_identical () =
  let instance = small_instance () in
  let base_path, base = trace_to_file ~n:4 instance in
  let empty_path, empty = trace_to_file ~faults:Fault.empty ~n:4 instance in
  check "cost identical" (Ledger.total_cost base.Engine.ledger)
    (Ledger.total_cost empty.Engine.ledger);
  check_bool "stream byte-identical" true
    (read_file base_path = read_file empty_path);
  Sys.remove base_path;
  Sys.remove empty_path

let test_total_blackout () =
  (* The only location is offline for the whole run: nothing executes,
     nothing reconfigures, every job drops. *)
  let instance = small_instance ~horizon:48 () in
  let faults =
    Fault.make
      ~crashes:
        [ crash ~location:0 ~from_round:0 ~until_round:instance.Instance.horizon ]
      ~reconfig_failures:[] ()
  in
  let result = Engine.run ~record_events:true ~faults ~n:1 ~policy instance in
  check "no execs" 0 (Ledger.exec_count result.Engine.ledger);
  check "no reconfigs" 0 (Ledger.reconfig_count result.Engine.ledger);
  check "all jobs drop"
    (Instance.total_jobs instance)
    (Ledger.drop_count result.Engine.ledger);
  let schedule = Schedule.of_run ~instance ~n:1 ~speed:1 result.Engine.ledger in
  match Schedule.validate schedule with
  | Ok () -> ()
  | Error errors -> Alcotest.failf "invalid: %s" (List.hd errors)

let test_reconfig_failure_pays () =
  (* One job, one location; every reconfiguration in the first two rounds
     is poisoned. The policy keeps retrying: each attempt pays delta but
     the location stays black, so the job can only execute once the
     poisoning ends (or drops if its deadline passes first). *)
  let instance =
    Instance.make ~delta:2 ~bounds:[| 4 |] ~arrivals:[ (0, [ (0, 1) ]) ] ()
  in
  let faults =
    Fault.make ~crashes:[]
      ~reconfig_failures:
        [ fail_at ~round:0 ~location:0; fail_at ~round:1 ~location:0 ]
      ()
  in
  let result =
    Engine.run ~record_events:true ~faults ~n:1 ~policy:greedy_policy instance
  in
  let ledger = result.Engine.ledger in
  check "failed attempts" 2 (Ledger.failed_reconfig_count ledger);
  check "job still executes" 1 (Ledger.exec_count ledger);
  check "no drops" 0 (Ledger.drop_count ledger);
  (* 2 failed + 1 successful reconfig, all paid. *)
  check "reconfigs include failures" 3 (Ledger.reconfig_count ledger);
  check "cost counts failures"
    ((3 * 2) + 0)
    (Ledger.total_cost ledger);
  let schedule = Schedule.of_run ~instance ~n:1 ~speed:1 ledger in
  match Schedule.validate schedule with
  | Ok () -> ()
  | Error errors -> Alcotest.failf "invalid: %s" (List.hd errors)

let test_offline_probe_matches_plan () =
  let instance = small_instance () in
  let n = 4 in
  let faults =
    Fault_gen.random ~seed:9 ~n ~horizon:instance.Instance.horizon
      ~crash_density:0.2 ~reconfig_fail_rate:0.05 ()
  in
  let probes = Rrs_obs.Probe.create_registry () in
  let result = Engine.run ~probes ~faults ~n ~policy instance in
  let stat key = H.stat result.Engine.stats key in
  (* Plan horizon = instance horizon, so no clipping: the offline
     histogram sums exactly the plan's offline location-rounds. *)
  check "offline location-rounds"
    (Fault.offline_location_rounds faults)
    (stat "offline_locations_sum");
  check "failed reconfigs probe"
    (Ledger.failed_reconfig_count result.Engine.ledger)
    (stat "failed_reconfigs")

(* A policy that behaves like dlru-edf until [crash_round], then raises. *)
let crashing_policy ~crash_round : (module Rrs_sim.Policy.POLICY) =
  (module struct
    module P = Rrs_core.Policy_lru_edf

    let name = "crash-at-" ^ string_of_int crash_round

    type t = P.t

    let create = P.create
    let on_drop = P.on_drop
    let on_arrival = P.on_arrival

    let reconfigure t view ~target =
      if view.Rrs_sim.Policy.round >= crash_round then
        failwith "policy exploded";
      P.reconfigure t view ~target

    let stats = P.stats
    let serialize = P.serialize
    let deserialize = P.deserialize
  end)

let test_abort_record_on_policy_exception () =
  let instance = small_instance () in
  let path = Filename.temp_file "rrs_abort" ".jsonl" in
  let channel = open_out path in
  (match
     Fun.protect
       ~finally:(fun () -> close_out channel)
       (fun () ->
         Engine.run
           ~sink:(Event_sink.Jsonl channel)
           ~n:4
           ~policy:(crashing_policy ~crash_round:7)
           instance)
   with
  | _ -> Alcotest.fail "expected the policy exception to propagate"
  | exception Failure _ -> ());
  let contents = read_file path in
  check_bool "aborted record written" true
    (let lines = String.split_on_char '\n' contents in
     List.exists
       (fun l ->
         String.length l > 0
         &&
         match Event_sink.parse_line l with
         | Ok (Event_sink.Aborted { ab_round = 7; ab_reason }) ->
             ab_reason = "Failure(\"policy exploded\")"
         | _ -> false)
       lines);
  (* The reader reports the abort, not a generic truncation. *)
  (match Report.of_path path with
  | Error message ->
      check_bool "report names the abort" true
        (contains ~affix:"aborted at round 7" message)
  | Ok _ -> Alcotest.fail "report must reject an aborted stream");
  Sys.remove path

(* ---- sweep isolation and retry ---- *)

let sweep_tasks ?faults () =
  List.map
    (fun seed ->
      Sweep.task
        ~key:(Printf.sprintf "ok/seed=%d" seed)
        ?faults ~policy ~n:4
        (small_instance ~seed ()))
    [ 1; 2; 3 ]

let test_sweep_isolates_crash () =
  let tasks =
    sweep_tasks ()
    @ [
        Sweep.task ~key:"bad/seed=9"
          ~policy:(crashing_policy ~crash_round:0)
          ~n:4 (small_instance ~seed:9 ());
      ]
  in
  let results = Sweep.run_results ~domains:2 tasks in
  check "all tasks reported" 4 (List.length results);
  let oks, errors =
    List.partition_map
      (function Ok o -> Left o | Error f -> Right f)
      results
  in
  check "survivors" 3 (List.length oks);
  (match errors with
  | [ f ] ->
      check_string "failed key" "bad/seed=9" f.Sweep.key;
      check_bool "exception text" true
        (f.Sweep.exn_text = "Failure(\"policy exploded\")");
      check "single attempt (not transient)" 1 f.Sweep.attempts
  | _ -> Alcotest.fail "expected exactly one failure");
  (* Sweep.run converts the failure into an attributable Failure. *)
  match Sweep.run ~domains:2 tasks with
  | _ -> Alcotest.fail "run must raise on a failed task"
  | exception Failure message ->
      check_bool "run names the key" true
        (contains ~affix:"bad/seed=9" message)

(* Raises Sys_error on the first [transient_failures] creations, then
   works — the shape of a sink whose disk was briefly full. *)
let flaky_policy ~failures_left : (module Rrs_sim.Policy.POLICY) =
  (module struct
    module P = Rrs_core.Policy_lru_edf

    let name = "flaky"

    type t = P.t

    let create ~n ~delta ~bounds =
      if !failures_left > 0 then begin
        decr failures_left;
        raise (Sys_error "transient: disk full")
      end;
      P.create ~n ~delta ~bounds

    let on_drop = P.on_drop
    let on_arrival = P.on_arrival
    let reconfigure = P.reconfigure
    let stats = P.stats
    let serialize = P.serialize
    let deserialize = P.deserialize
  end)

let test_sweep_retries_transient () =
  let failures_left = ref 1 in
  let tasks =
    [
      Sweep.task ~key:"flaky" ~policy:(flaky_policy ~failures_left) ~n:4
        (small_instance ());
    ]
  in
  (match Sweep.run_results ~domains:1 ~retries:1 tasks with
  | [ Ok outcome ] -> check_string "recovered" "flaky" outcome.Sweep.key
  | [ Error f ] -> Alcotest.failf "retry should recover: %s" f.Sweep.exn_text
  | _ -> Alcotest.fail "one result expected");
  (* With retries exhausted the Sys_error is a terminal failure. *)
  let failures_left = ref 10 in
  match
    Sweep.run_results ~domains:1 ~retries:2
      [
        Sweep.task ~key:"flaky" ~policy:(flaky_policy ~failures_left) ~n:4
          (small_instance ());
      ]
  with
  | [ Error f ] -> check "attempts recorded" 3 f.Sweep.attempts
  | _ -> Alcotest.fail "expected terminal failure"

let test_faulted_sweep_deterministic_across_domains () =
  let faults =
    Fault_gen.random ~seed:3 ~n:4 ~horizon:120 ~crash_density:0.15
      ~reconfig_fail_rate:0.02 ()
  in
  let outcomes domains = Sweep.run ~domains (sweep_tasks ~faults ()) in
  let a = outcomes 1 and b = outcomes 3 in
  check_bool "outcomes byte-identical across domain counts" true
    (List.for_all2
       (fun (x : Sweep.outcome) (y : Sweep.outcome) ->
         x.key = y.key && x.cost = y.cost
         && x.reconfig_count = y.reconfig_count
         && x.drop_count = y.drop_count
         && x.exec_count = y.exec_count && x.stats = y.stats)
       a b)

(* ---- properties ---- *)

(* Every instance covers its deadlines (Instance.make guarantees it), so
   at the horizon each job was executed or dropped: the ledger conserves
   jobs under any fault plan, and the fault-aware validator accepts the
   replay. *)
let prop_conservation_under_faults =
  QCheck2.Test.make ~name:"ledger conserves jobs under random faults"
    ~count:60
    QCheck2.Gen.(
      pair H.gen_rate_limited (pair (int_bound 10_000) (int_range 1 6)))
    (fun (instance, (fault_seed, n)) ->
      let faults =
        Fault_gen.random ~seed:fault_seed ~n
          ~horizon:instance.Instance.horizon ~crash_density:0.25
          ~mean_outage:4 ~reconfig_fail_rate:0.1 ()
      in
      let result =
        Engine.run ~record_events:true ~faults ~n ~policy instance
      in
      let ledger = result.Engine.ledger in
      let conserved =
        Instance.total_jobs instance
        = Ledger.exec_count ledger + Ledger.drop_count ledger
      in
      let valid =
        match
          Schedule.validate
            (Schedule.of_run ~instance ~n ~speed:1 ledger)
        with
        | Ok () -> true
        | Error errors ->
            QCheck2.Test.fail_reportf "invalid schedule: %s" (List.hd errors)
      in
      let cost_formula =
        Ledger.total_cost ledger
        = (instance.Instance.delta * Ledger.reconfig_count ledger)
          + Ledger.drop_count ledger
      in
      conserved && valid && cost_formula)

let prop_empty_plan_same_cost =
  QCheck2.Test.make ~name:"empty fault plan changes nothing" ~count:30
    H.gen_rate_limited (fun instance ->
      Engine.cost ~n:3 ~policy instance
      = Engine.cost ~faults:Fault.empty ~n:3 ~policy instance)

let prop = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "normalization" `Quick test_make_normalizes;
        Alcotest.test_case "invalid plans" `Quick test_make_invalid;
        Alcotest.test_case "serialization round trip" `Quick test_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "compile bounds + clipping" `Quick
          test_compile_bounds;
      ] );
    ( "fault.engine",
      [
        Alcotest.test_case "empty plan byte-identical" `Quick
          test_empty_plan_byte_identical;
        Alcotest.test_case "total blackout" `Quick test_total_blackout;
        Alcotest.test_case "failed reconfigs pay" `Quick
          test_reconfig_failure_pays;
        Alcotest.test_case "offline probe matches plan" `Quick
          test_offline_probe_matches_plan;
        Alcotest.test_case "abort record on exception" `Quick
          test_abort_record_on_policy_exception;
      ] );
    ( "fault.sweep",
      [
        Alcotest.test_case "crash isolation" `Quick test_sweep_isolates_crash;
        Alcotest.test_case "transient retry" `Quick
          test_sweep_retries_transient;
        Alcotest.test_case "deterministic across domains" `Quick
          test_faulted_sweep_deterministic_across_domains;
      ] );
    ( "fault.properties",
      [ prop prop_conservation_under_faults; prop prop_empty_plan_same_cost ]
    );
  ]
