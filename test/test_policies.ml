(* Core-algorithm tests: per-color state machine, rankings, cache layout,
   the three policies' invariants and behavior on directed scenarios. *)

module Types = Rrs_sim.Types
module Instance = Rrs_sim.Instance
module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger
module Job_pool = Rrs_sim.Job_pool
module Color_state = Rrs_core.Color_state
module Cache_layout = Rrs_core.Cache_layout
module Ranking = Rrs_core.Ranking
module H = Test_helpers

(* The drop buffer [Color_state.on_drop] reads, for [pairs]. *)
let drops s pairs = Test_helpers.drops ~num_colors:(Color_state.num_colors s) pairs

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Color_state: counters, eligibility, wraps, timestamps ---- *)

let always_uncached _ = false

let test_eligibility_via_wrap () =
  let s = Color_state.create ~delta:3 ~bounds:[| 4 |] () in
  Color_state.on_arrival s ~round:0 ~request:[ (0, 2) ];
  check_bool "2 < delta jobs: ineligible" false (Color_state.eligible s 0);
  Color_state.on_drop s ~round:4 ~dropped:(drops s []) ~in_cache:always_uncached;
  Color_state.on_arrival s ~round:4 ~request:[ (0, 2) ];
  (* cnt = 4 >= 3: wrap, becomes eligible, cnt = 1. *)
  check_bool "wrap makes eligible" true (Color_state.eligible s 0);
  check "deadline refreshed" 8 (Color_state.deadline s 0)

let test_eligibility_reset_when_uncached () =
  let s = Color_state.create ~delta:2 ~bounds:[| 4 |] () in
  Color_state.on_arrival s ~round:0 ~request:[ (0, 2) ];
  check_bool "eligible" true (Color_state.eligible s 0);
  (* Boundary at round 4, not cached: becomes ineligible (epoch ends). *)
  Color_state.on_drop s ~round:4 ~dropped:(drops s []) ~in_cache:always_uncached;
  check_bool "reset" false (Color_state.eligible s 0);
  check "one epoch ended" 1 (H.stat (Color_state.stats s) "epochs")

let test_eligibility_kept_when_cached () =
  let s = Color_state.create ~delta:2 ~bounds:[| 4 |] () in
  Color_state.on_arrival s ~round:0 ~request:[ (0, 2) ];
  Color_state.on_drop s ~round:4 ~dropped:(drops s []) ~in_cache:(fun _ -> true);
  check_bool "still eligible" true (Color_state.eligible s 0)

let test_non_boundary_rounds_do_nothing () =
  let s = Color_state.create ~delta:2 ~bounds:[| 4 |] () in
  Color_state.on_arrival s ~round:0 ~request:[ (0, 2) ];
  (* Rounds 1-3 are not boundaries of a bound-4 color. *)
  Color_state.on_drop s ~round:1 ~dropped:(drops s []) ~in_cache:always_uncached;
  Color_state.on_drop s ~round:3 ~dropped:(drops s []) ~in_cache:always_uncached;
  check_bool "no reset off-boundary" true (Color_state.eligible s 0);
  check "deadline unchanged" 4 (Color_state.deadline s 0)

let test_timestamp_definition () =
  let s = Color_state.create ~delta:2 ~bounds:[| 4 |] () in
  (* Wrap at round 0: timestamp stays 0 while the current boundary is 0,
     and becomes 0 (the wrap round) only after the next boundary. *)
  Color_state.on_arrival s ~round:0 ~request:[ (0, 3) ];
  check "ts at round 2: no wrap before boundary 0" 0
    (Color_state.timestamp s 0 ~round:2);
  Color_state.on_drop s ~round:4 ~dropped:(drops s []) ~in_cache:(fun _ -> true);
  Color_state.on_arrival s ~round:4 ~request:[ (0, 2) ];
  (* Wrap at round 4 too (cnt was 1, +2 = 3 >= 2). As of rounds 4-7 the
     most recent boundary is 4; the latest wrap before it is round 0. *)
  check "ts after boundary 4" 0 (Color_state.timestamp s 0 ~round:5);
  Color_state.on_drop s ~round:8 ~dropped:(drops s []) ~in_cache:(fun _ -> true);
  Color_state.on_arrival s ~round:8 ~request:[];
  (* As of round 8, latest wrap before boundary 8 is the round-4 wrap. *)
  check "ts after boundary 8" 4 (Color_state.timestamp s 0 ~round:9)

let test_drop_classification () =
  let s = Color_state.create ~delta:2 ~bounds:[| 2 |] () in
  Color_state.on_arrival s ~round:0 ~request:[ (0, 1) ];
  (* 1 < delta: ineligible when its job drops at round 2. *)
  Color_state.on_drop s ~round:2 ~dropped:(drops s [ (0, 1) ]) ~in_cache:always_uncached;
  Color_state.on_arrival s ~round:2 ~request:[ (0, 3) ];
  (* wrap -> eligible; at round 4 (uncached) its pending jobs drop as
     eligible drops, then it resets. *)
  Color_state.on_drop s ~round:4 ~dropped:(drops s [ (0, 3) ]) ~in_cache:always_uncached;
  let stats = Color_state.stats s in
  check "ineligible drops" 1 (H.stat stats "ineligible_drops");
  check "eligible drops" 3 (H.stat stats "eligible_drops")

let test_epoch_counting_includes_incomplete () =
  let s = Color_state.create ~delta:5 ~bounds:[| 2; 2 |] () in
  (* Color 0: full epoch (becomes eligible then resets). Color 1: a few
     jobs, never eligible -> one incomplete epoch. *)
  Color_state.on_arrival s ~round:0 ~request:[ (0, 5); (1, 1) ];
  Color_state.on_drop s ~round:2 ~dropped:(drops s []) ~in_cache:always_uncached;
  check "ended + incomplete" 2 (H.stat (Color_state.stats s) "epochs")

(* ---- Rankings ---- *)

let test_edf_ranking () =
  let s = Color_state.create ~delta:1 ~bounds:[| 4; 4; 8; 4 |] () in
  let pool = Job_pool.create ~num_colors:4 in
  (* All colors get boundary treatment at round 0. *)
  Color_state.on_arrival s ~round:0 ~request:[ (0, 1); (1, 1); (2, 1); (3, 1) ];
  (* color 1 idle (no pending), others nonidle. *)
  Job_pool.add pool ~color:0 ~deadline:4 ~count:1;
  Job_pool.add pool ~color:2 ~deadline:8 ~count:1;
  Job_pool.add pool ~color:3 ~deadline:4 ~count:1;
  let ranking = Ranking.create ~bounds:[| 4; 4; 8; 4 |] in
  let key color = Ranking.edf_key ranking s pool color in
  let sorted = List.sort (fun a b -> Int.compare (key a) (key b)) [ 0; 1; 2; 3 ] in
  (* nonidle first; among nonidle: deadline 4 before 8; ties by color. *)
  Alcotest.(check (list int)) "edf order" [ 0; 3; 2; 1 ] sorted

let test_job_ranking () =
  let pool = Job_pool.create ~num_colors:3 in
  Job_pool.add pool ~color:0 ~deadline:6 ~count:1;
  Job_pool.add pool ~color:1 ~deadline:4 ~count:1;
  Job_pool.add pool ~color:2 ~deadline:6 ~count:1;
  let ranking = Ranking.create ~bounds:[| 8; 4; 4 |] in
  let key color = Ranking.job_key ranking pool color in
  let sorted = List.sort (fun a b -> Int.compare (key a) (key b)) [ 0; 1; 2 ] in
  (* deadline 4 first; among deadline 6: smaller bound (color 2) first. *)
  Alcotest.(check (list int)) "job order" [ 1; 2; 0 ] sorted

(* ---- Cache layout ---- *)

(* [Cache_layout.place] seen through options: [None] for [-1]. *)
let place ~n ~copies ~current ~want () =
  let layout = Cache_layout.create ~num_colors:64 in
  let target = Array.make n 0 in
  Cache_layout.place layout ~copies
    ~current:(Array.map (function None -> -1 | Some c -> c) current)
    ~want:(Array.of_list want) ~len:(List.length want) ~target;
  Array.map (fun c -> if c < 0 then None else Some c) target

let test_layout_keeps_existing () =
  let current = [| Some 1; Some 2; Some 1; None |] in
  let target = place ~n:4 ~copies:2 ~current ~want:[ 1; 3 ] () in
  Alcotest.(check (array (option int)))
    "1 keeps both slots; 3 takes the rest"
    [| Some 1; Some 3; Some 1; Some 3 |]
    target

let test_layout_partial_keep () =
  let current = [| Some 1; None; None; None |] in
  let target = place ~n:4 ~copies:2 ~current ~want:[ 1 ] () in
  Alcotest.(check (array (option int)))
    "second copy fills first free slot"
    [| Some 1; Some 1; None; None |]
    target

let test_layout_errors () =
  let current = [| None; None |] in
  (match place ~n:2 ~copies:2 ~current ~want:[ 1; 2 ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over capacity accepted");
  match place ~n:2 ~copies:1 ~current ~want:[ 1; 1 ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let prop_layout_well_formed =
  QCheck2.Test.make ~name:"cache_layout: every wanted color gets exactly k copies"
    ~count:300
    QCheck2.Gen.(
      let* n = int_range 2 16 in
      let* copies = int_range 1 2 in
      let* want_size = int_range 0 (n / copies) in
      let want = List.init want_size (fun i -> i * 3) in
      let* current = array_size (return n) (option (int_bound 40)) in
      return (n, copies, current, want))
    (fun (n, copies, current, want) ->
      let target = place ~n ~copies ~current ~want () in
      let count color =
        Array.fold_left
          (fun acc cell -> if cell = Some color then acc + 1 else acc)
          0 target
      in
      List.for_all (fun c -> count c = copies) want
      && Array.for_all
           (function None -> true | Some c -> List.mem c want)
           target)

let prop_layout_minimizes_moves =
  QCheck2.Test.make
    ~name:"cache_layout: never recolors a location already holding a wanted color"
    ~count:300
    QCheck2.Gen.(
      let* n = int_range 2 12 in
      let* want_size = int_range 0 (n / 2) in
      let want = List.init want_size Fun.id in
      let* current = array_size (return n) (option (int_bound 6)) in
      return (n, current, want))
    (fun (n, current, want) ->
      let target = place ~n ~copies:2 ~current ~want () in
      (* Count per-color kept locations: for each wanted color, changed
         locations = copies - (kept existing), i.e. a location holding a
         wanted color may only change if that color already has 2 kept
         slots elsewhere. Equivalent check: #(locations where
         target = current = Some wanted) >= min(copies, #existing). *)
      List.for_all
        (fun color ->
          let existing =
            Array.fold_left
              (fun acc cell -> if cell = Some color then acc + 1 else acc)
              0 current
          in
          let kept = ref 0 in
          Array.iteri
            (fun i cell ->
              if cell = Some color && current.(i) = Some color then incr kept)
            target;
          !kept >= min 2 existing)
        want)

(* ---- Policy invariants on random instances ---- *)

let policy_invariant_test ~name ~policy ~max_distinct_of_n ~copies =
  QCheck2.Test.make ~name ~count:40 H.gen_rate_limited (fun instance ->
      let module P = (val policy : Rrs_sim.Policy.POLICY) in
      let module S = H.Spy (P) in
      S.expected_copies := copies;
      let n = 8 in
      let result, _schedule = H.run_validated ~n ~policy:(module S) instance in
      let stats = result.stats in
      H.stat stats "spy_max_distinct" <= max_distinct_of_n n
      && H.stat stats "spy_replication_violations" = 0)

let prop_lru_invariants =
  policy_invariant_test ~name:"dlru: <= n/2 distinct colors, all duplicated"
    ~policy:(module Rrs_core.Policy_lru)
    ~max_distinct_of_n:(fun n -> n / 2)
    ~copies:2

let prop_edf_invariants =
  policy_invariant_test ~name:"edf: <= n/2 distinct colors, all duplicated"
    ~policy:(module Rrs_core.Policy_edf)
    ~max_distinct_of_n:(fun n -> n / 2)
    ~copies:2

let prop_lru_edf_invariants =
  policy_invariant_test ~name:"dlru-edf: <= n/2 distinct colors, all duplicated"
    ~policy:(module Rrs_core.Policy_lru_edf)
    ~max_distinct_of_n:(fun n -> n / 2)
    ~copies:2

let prop_seq_edf_invariants =
  policy_invariant_test ~name:"seq-edf: <= n distinct colors, single copies"
    ~policy:(module Rrs_core.Seq_edf)
    ~max_distinct_of_n:(fun n -> n)
    ~copies:1

let prop_policies_validate_on_unbatched =
  (* The policies are defined for batched inputs but must stay feasible
     (valid schedules) on anything. *)
  QCheck2.Test.make ~name:"policies: valid schedules even on unbatched input"
    ~count:25 H.gen_unbatched (fun instance ->
      List.for_all
        (fun (_, policy) ->
          let _ = H.run_validated ~n:8 ~policy instance in
          true)
        Rrs_stats.Experiment.standard_policies)

(* ---- Directed scenarios ---- *)

let test_lru_killer_shape () =
  (* Appendix A: ΔLRU pins short-term colors and drops the whole backlog;
     ΔLRU-EDF must beat it by a wide margin. *)
  let adv = Rrs_workload.Adversary.lru_killer ~n:8 ~delta:2 ~j:5 ~k:8 in
  let lru = Engine.cost ~n:8 ~policy:(module Rrs_core.Policy_lru) adv.instance in
  let lru_edf =
    Engine.cost ~n:8 ~policy:(module Rrs_core.Policy_lru_edf) adv.instance
  in
  (* ΔLRU: n*delta reconfig + 2^k dropped long jobs, exactly. *)
  check "dlru cost" ((8 * 2) + 256) lru;
  check_bool "dlru-edf at most off" true (lru_edf <= adv.off_cost);
  check_bool "dlru much worse than dlru-edf" true (lru > 3 * lru_edf)

let test_edf_killer_shape () =
  (* Appendix B: EDF thrashes; its reconfiguration cost dominates, and
     grows with k - j while OFF stays fixed. *)
  let adv = Rrs_workload.Adversary.edf_killer ~n:4 ~delta:5 ~j:3 ~k:6 in
  let run policy = Engine.run ~record_events:false ~n:4 ~policy adv.instance in
  let edf = run (module Rrs_core.Policy_edf) in
  let edf_cost = Ledger.total_cost edf.ledger in
  check_bool "edf pays well above off" true (edf_cost > 2 * adv.off_cost);
  check_bool "edf cost is reconfiguration-dominated" true
    (Ledger.reconfig_cost edf.ledger > Ledger.drop_count edf.ledger)

let test_lru_edf_handles_both_adversaries () =
  let a = Rrs_workload.Adversary.lru_killer ~n:8 ~delta:2 ~j:5 ~k:9 in
  let b = Rrs_workload.Adversary.edf_killer ~n:4 ~delta:5 ~j:3 ~k:6 in
  List.iter
    (fun (adv : Rrs_workload.Adversary.lower_bound_input) ->
      let n = if adv == a then 8 else 4 in
      let cost = Engine.cost ~n ~policy:(module Rrs_core.Policy_lru_edf) adv.instance in
      check_bool
        (Printf.sprintf "dlru-edf within 4x of off on %s" adv.instance.name)
        true
        (cost <= 4 * adv.off_cost))
    [ a; b ]

let test_par_edf_optimal_drops () =
  (* 3 unit-bound jobs per round on 2 resources: exactly 1 drop/round. *)
  let i =
    Instance.make ~delta:1 ~bounds:[| 1; 1; 1 |]
      ~arrivals:(List.init 4 (fun r -> (r, [ (0, 1); (1, 1); (2, 1) ])))
      ()
  in
  let result = Rrs_core.Par_edf.run ~m:2 i in
  check "drops" 4 result.drops;
  check "executed" 8 result.executed;
  check_bool "not nice" false (Rrs_core.Par_edf.is_nice ~m:2 i);
  check_bool "nice with 3 resources" true (Rrs_core.Par_edf.is_nice ~m:3 i)

let test_par_edf_prefers_early_deadlines () =
  (* One resource, a tight job and a loose job arriving together: the
     tight one must be executed first; both complete. *)
  let i =
    Instance.make ~delta:1 ~bounds:[| 1; 4 |] ~arrivals:[ (0, [ (0, 1); (1, 1) ]) ] ()
  in
  let result = Rrs_core.Par_edf.run ~m:1 i in
  check "no drops" 0 result.drops;
  check "both executed" 2 result.executed

let quick name f = Alcotest.test_case name `Quick f
let prop p = QCheck_alcotest.to_alcotest p

(* ---- Color set: the hash-table walk order ---- *)

(* Random add/remove/clear sequences over 80 colors, mirrored into the
   [Hashtbl] the cached sets used to be: the walk order must agree
   after every operation, through table growth past 32 members. *)
let prop_color_set_walk_order =
  QCheck2.Test.make ~name:"color_set: walk order equals Hashtbl.fold's" ~count:200
    QCheck2.Gen.(list_size (int_range 1 200) (pair (int_bound 9) (int_bound 79)))
    (fun ops ->
      let set = Rrs_core.Color_set.create ~num_colors:80 in
      let table = Hashtbl.create 16 in
      let walk = Array.make 80 0 in
      List.for_all
        (fun (op, color) ->
          (match op with
          | 0 ->
              Rrs_core.Color_set.clear set;
              Hashtbl.reset table
          | 1 | 2 ->
              Rrs_core.Color_set.remove set color;
              Hashtbl.remove table color
          | _ ->
              Rrs_core.Color_set.add set color;
              Hashtbl.replace table color ());
          let len = Rrs_core.Color_set.fill_table_order set walk ~from:0 in
          Array.to_list (Array.sub walk 0 len)
          = Hashtbl.fold (fun color () acc -> color :: acc) table [])
        ops)

(* ---- Allocation gate: a steady-state round allocates nothing ---- *)

(* After a warm-up, 2000 rounds of the engine-batch shape (32 colors,
   load 0.9, n = 16, no event sink, no probes). Measured: 0.0 minor
   words per round for dlru-edf, edf and dlru (the arrival history and
   the deadline rings grow by doubling, rarely and mostly in the major
   heap); before the int-array policy contract it was 1314-1634. *)
let test_steady_round_allocation () =
  let instance =
    match
      Rrs_workload.Spec.parse "uniform:colors=32,load=0.9,horizon=3000,seed=4"
    with
    | Ok instance -> instance
    | Error message -> Alcotest.fail message
  in
  List.iter
    (fun name ->
      let policy = Option.get (Rrs_core.Policies.find name) in
      let stepper =
        Rrs_sim.Stepper.create ~record_events:false ~policy
          {
            Rrs_sim.Stepper.name = instance.name;
            delta = instance.delta;
            bounds = instance.bounds;
            n = 16;
            speed = 1;
            horizon = instance.horizon;
          }
      in
      let run first last =
        for round = first to last - 1 do
          Rrs_sim.Stepper.feed stepper instance.requests.(round);
          Rrs_sim.Stepper.step stepper
        done
      in
      run 0 1000;
      let before = Gc.minor_words () in
      run 1000 3000;
      let per_round = (Gc.minor_words () -. before) /. 2000. in
      if per_round > 1.0 then
        Alcotest.failf "%s allocates %.1f minor words per round" name per_round)
    [ "dlru-edf"; "edf"; "dlru" ]

let suite =
  [
    ( "core.color_state",
      [
        quick "wrap grants eligibility" test_eligibility_via_wrap;
        quick "uncached boundary resets" test_eligibility_reset_when_uncached;
        quick "cached boundary keeps eligibility" test_eligibility_kept_when_cached;
        quick "off-boundary rounds are inert" test_non_boundary_rounds_do_nothing;
        quick "timestamp = latest wrap before boundary" test_timestamp_definition;
        quick "drop classification" test_drop_classification;
        quick "epoch counting" test_epoch_counting_includes_incomplete;
      ] );
    ( "core.ranking",
      [
        quick "edf color ranking" test_edf_ranking;
        quick "pending job ranking" test_job_ranking;
      ] );
    ( "core.cache_layout",
      [
        quick "keeps existing placements" test_layout_keeps_existing;
        quick "fills missing copies" test_layout_partial_keep;
        quick "rejects bad inputs" test_layout_errors;
        prop prop_layout_well_formed;
        prop prop_layout_minimizes_moves;
      ] );
    ( "core.policies",
      [
        prop prop_lru_invariants;
        prop prop_edf_invariants;
        prop prop_lru_edf_invariants;
        prop prop_seq_edf_invariants;
        prop prop_policies_validate_on_unbatched;
        quick "appendix A shape" test_lru_killer_shape;
        quick "appendix B shape" test_edf_killer_shape;
        quick "dlru-edf survives both adversaries" test_lru_edf_handles_both_adversaries;
      ] );
    ("core.color_set", [ prop prop_color_set_walk_order ]);
    ( "core.allocation",
      [ quick "steady-state round allocates nothing" test_steady_round_allocation ]
    );
    ( "core.par_edf",
      [
        quick "drop optimality on overload" test_par_edf_optimal_drops;
        quick "earliest deadline first" test_par_edf_prefers_early_deadlines;
      ] );
  ]
