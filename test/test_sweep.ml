(* Sweep-runner and bench-serialization tests: striped domain map
   ordering, sequential/parallel outcome equality, BENCH json content. *)

module Sweep = Rrs_sim.Sweep
module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger
module Bench_io = Rrs_stats.Bench_io

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* ---- Sweep.map ---- *)

let test_map_preserves_order () =
  let items = Array.init 37 Fun.id in
  let expected = Array.map (fun x -> (x * x) + 1) items in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "order with %d domains" domains)
        expected
        (Sweep.map ~domains (fun x -> (x * x) + 1) items))
    [ 1; 2; 4; 7 ]

let test_map_empty_and_excess_domains () =
  Alcotest.(check (array int)) "empty" [||] (Sweep.map ~domains:4 Fun.id [||]);
  Alcotest.(check (array int))
    "more domains than items" [| 10 |]
    (Sweep.map ~domains:8 (fun x -> x * 10) [| 1 |])

let test_map_reraises () =
  match
    Sweep.map ~domains:3
      (fun x -> if x = 5 then failwith "boom" else x)
      (Array.init 8 Fun.id)
  with
  | exception Failure msg when msg = "boom" -> ()
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected the worker exception to re-raise"

(* ---- Sweep.run ---- *)

let grid () =
  let policies : (string * (module Rrs_sim.Policy.POLICY)) list =
    [
      ("dlru", (module Rrs_core.Policy_lru));
      ("dlru-edf", (module Rrs_core.Policy_lru_edf));
    ]
  in
  List.concat_map
    (fun (name, policy) ->
      List.map
        (fun seed ->
          let instance =
            Rrs_workload.Random_workloads.uniform ~seed ~colors:6 ~delta:2
              ~bound_log_range:(0, 3) ~horizon:64 ~load:0.8 ~rate_limited:true
              ()
          in
          Sweep.task
            ~key:(Printf.sprintf "%s/seed=%d" name seed)
            ~policy ~n:4 instance)
        [ 1; 2; 3 ])
    policies

let strip (o : Sweep.outcome) =
  (o.key, o.n, o.delta, o.cost, o.reconfig_count, o.drop_count, o.exec_count)

let test_run_submission_order () =
  let tasks = grid () in
  let outcomes = Sweep.run ~domains:1 tasks in
  Alcotest.(check (list string))
    "keys in submission order"
    (List.map (fun (t : Sweep.task) -> t.key) tasks)
    (List.map (fun (o : Sweep.outcome) -> o.key) outcomes)

let test_run_parallel_matches_sequential () =
  let tasks = grid () in
  let sequential = Sweep.run ~domains:1 tasks in
  let parallel = Sweep.run ~domains:4 tasks in
  check_bool "identical ledger totals" true
    (List.map strip sequential = List.map strip parallel)

let test_run_matches_engine () =
  (* A sweep outcome is exactly a (record_events:false) engine run. *)
  match grid () with
  | [] -> Alcotest.fail "empty grid"
  | (t : Sweep.task) :: _ ->
      let result =
        Engine.run ~n:t.n ~record_events:false ~policy:t.policy t.instance
      in
      let o = List.hd (Sweep.run ~domains:1 [ t ]) in
      check "cost" (Ledger.total_cost result.ledger) o.cost;
      check "reconfigs" (Ledger.reconfig_count result.ledger) o.reconfig_count;
      check "drops" (Ledger.drop_count result.ledger) o.drop_count;
      check "execs" (Ledger.exec_count result.ledger) o.exec_count

(* A policy that raises on its first reconfigure. *)
module Crashy : Rrs_sim.Policy.POLICY = struct
  include Rrs_core.Policy_lru

  let name = "crashy"
  let reconfigure _ _ ~target:_ = failwith "injected crash"
end

let test_run_results_isolates_crashes () =
  let crashy =
    List.map
      (fun seed ->
        let instance =
          Rrs_workload.Random_workloads.uniform ~seed ~colors:6 ~delta:2
            ~bound_log_range:(0, 3) ~horizon:64 ~load:0.8 ~rate_limited:true ()
        in
        Sweep.task
          ~key:(Printf.sprintf "crashy/seed=%d" seed)
          ~policy:(module Crashy) ~n:4 instance)
      [ 1; 2 ]
  in
  let tasks = grid () @ crashy in
  let results = Sweep.run_results ~domains:2 tasks in
  let outcomes = List.filter_map Result.to_option results in
  let failures =
    List.filter_map (function Ok _ -> None | Error f -> Some f) results
  in
  Alcotest.(check (list string))
    "survivors give outcomes"
    (List.map (fun (t : Sweep.task) -> t.key) (grid ()))
    (List.map (fun (o : Sweep.outcome) -> o.key) outcomes);
  Alcotest.(check (list string))
    "failures carry their task keys"
    (List.map (fun (t : Sweep.task) -> t.key) crashy)
    (List.map (fun (f : Sweep.failure) -> f.key) failures);
  List.iter
    (fun (f : Sweep.failure) ->
      check_string "failure message" {|Failure("injected crash")|} f.exn_text;
      check_bool "attempts >= 1" true (f.attempts >= 1))
    failures;
  let b = Bench_io.create ~tag:"crash" in
  Bench_io.start_experiment b ~id:"sweep" ~claim:"crash isolation";
  List.iter
    (fun (o : Sweep.outcome) ->
      Bench_io.record_outcome b ~workload:o.key ~policy:"p" o)
    outcomes;
  List.iter (Bench_io.record_failure b) failures;
  let json = Bench_io.to_string b in
  check_bool "schema version" true (contains json {|"schema": "rrs-bench/3"|});
  check_bool "errors array" true (contains json {|"errors": [{"key": "crashy/seed=1"|});
  List.iter
    (fun (f : Sweep.failure) ->
      check_bool ("error entry for " ^ f.key) true
        (contains json
           (Printf.sprintf
              {|{"key": "%s", "error": "Failure(\"injected crash\")", "attempts": %d}|}
              f.key f.attempts)))
    failures;
  check_bool "surviving runs counted" true
    (contains json
       (Printf.sprintf {|"totals": {"experiments": 1, "runs": %d|}
          (List.length outcomes)))

(* ---- Bench_io ---- *)

let test_tag_of_path () =
  check_string "BENCH_ prefix stripped" "pr1"
    (Bench_io.tag_of_path "results/BENCH_pr1.json");
  check_string "plain basename" "baseline"
    (Bench_io.tag_of_path "/tmp/baseline.json")

let test_json_document () =
  let b = Bench_io.create ~tag:"unit" in
  Bench_io.start_experiment b ~id:"E1" ~claim:{|quotes " and \ slashes|};
  Bench_io.record b ~policy:"dlru" ~workload:"w0" ~n:4 ~delta:3 ~cost:17
    ~reconfig_count:5 ~drop_count:2 ();
  Bench_io.record b ~policy:"edf" ~workload:"w1" ~n:8 ~delta:3 ~cost:9
    ~reconfig_count:0 ~drop_count:9 ~exec_count:42 ~wall_s:0.25 ();
  let json = Bench_io.to_string b in
  check_bool "schema version" true (contains json {|"schema": "rrs-bench/3"|});
  check_bool "tag" true (contains json {|"tag": "unit"|});
  check_bool "claim escaped" true (contains json {|quotes \" and \\ slashes|});
  check_bool "reconfig_cost = delta * reconfigs" true
    (contains json {|"reconfig_cost": 15|});
  check_bool "optional exec_count present" true
    (contains json {|"exec_count": 42|});
  check_bool "optional wall_s present" true (contains json {|"wall_s": 0.250000|});
  check_bool "totals" true
    (contains json {|"totals": {"experiments": 1, "runs": 2|})

let test_json_adhoc_experiment () =
  let b = Bench_io.create ~tag:"t" in
  Bench_io.record b ~policy:"p" ~workload:"w" ~n:1 ~delta:1 ~cost:0
    ~reconfig_count:0 ~drop_count:0 ();
  check_bool "implicit adhoc group" true
    (contains (Bench_io.to_string b) {|"id": "adhoc"|})

let quick name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "sweep.map",
      [
        quick "preserves input order across domain counts"
          test_map_preserves_order;
        quick "empty input and excess domains" test_map_empty_and_excess_domains;
        quick "worker exceptions re-raise" test_map_reraises;
      ] );
    ( "sweep.run",
      [
        quick "submission order" test_run_submission_order;
        quick "parallel matches sequential" test_run_parallel_matches_sequential;
        quick "outcome matches a direct engine run" test_run_matches_engine;
        quick "crashing tasks are isolated and reported"
          test_run_results_isolates_crashes;
      ] );
    ( "stats.bench_io",
      [
        quick "tag_of_path" test_tag_of_path;
        quick "json document" test_json_document;
        quick "adhoc experiment" test_json_adhoc_experiment;
      ] );
  ]
