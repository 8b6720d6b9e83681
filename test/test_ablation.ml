(* Tests for the extension layer: the refined per-color lower bound, the
   parameterized ΔLRU-EDF split, and the LRU-2 baseline. *)

module Instance = Rrs_sim.Instance
module Engine = Rrs_sim.Engine
module Lower_bounds = Rrs_offline.Lower_bounds
module Color_state = Rrs_core.Color_state
module H = Test_helpers

(* The drop buffer [Color_state.on_drop] reads, for [pairs]. *)
let drops s pairs = Test_helpers.drops ~num_colors:(Color_state.num_colors s) pairs

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- per_color_refined ---- *)

let test_refined_bound_example () =
  (* One color, 6 unit-bound jobs per round for 4 rounds, delta 2, m 2.
     r=0: 24 drops. r=1: 2 + 5*4 = 22. r=2: 4 + 4*4 = 20. Refined = 20;
     plain per-color bound = min(2, 24) = 2. *)
  let i =
    Instance.make ~delta:2 ~bounds:[| 1 |]
      ~arrivals:(List.init 4 (fun r -> (r, [ (0, 6) ])))
      ()
  in
  check "plain" 2 (Lower_bounds.per_color i);
  check "refined" 20 (Lower_bounds.per_color_refined ~m:2 i)

let test_refined_bound_prefers_dropping () =
  (* 1 job, delta 5: dropping is cheapest. *)
  let i = Instance.make ~delta:5 ~bounds:[| 2 |] ~arrivals:[ (0, [ (0, 1) ]) ] () in
  check "refined drops" 1 (Lower_bounds.per_color_refined ~m:3 i)

let prop_refined_dominates_plain =
  QCheck2.Test.make ~name:"per_color_refined >= per_color" ~count:60
    H.gen_batched (fun instance ->
      Lower_bounds.per_color_refined ~m:2 instance
      >= Lower_bounds.per_color instance)

let prop_refined_below_opt =
  QCheck2.Test.make ~name:"per_color_refined <= exact OPT" ~count:40 H.gen_tiny
    (fun instance ->
      match Rrs_offline.Brute_force.opt_cost ~max_states:300_000 ~m:2 instance with
      | None -> QCheck2.assume_fail ()
      | Some opt -> Lower_bounds.per_color_refined ~m:2 instance <= opt)

(* ---- LRU-2 timestamps ---- *)

let test_timestamp2 () =
  let s = Color_state.create ~delta:2 ~bounds:[| 4 |] () in
  (* Wraps at rounds 0, 4 and 8. *)
  List.iter
    (fun round ->
      Color_state.on_drop s ~round ~dropped:(drops s []) ~in_cache:(fun _ -> true);
      Color_state.on_arrival s ~round ~request:[ (0, 2) ])
    [ 0; 4; 8 ];
  (* As of round 9: boundary 8; last wrap before it is 4, second one 0. *)
  check "ts1" 4 (Color_state.timestamp s 0 ~round:9);
  check "ts2" 0 (Color_state.timestamp2 s 0 ~round:9);
  (* Cross the next boundary without a wrap: as of round 12, wraps before
     boundary 12 are 8, 4, ... *)
  Color_state.on_drop s ~round:12 ~dropped:(drops s []) ~in_cache:(fun _ -> true);
  Color_state.on_arrival s ~round:12 ~request:[];
  check "ts1 after" 8 (Color_state.timestamp s 0 ~round:13);
  check "ts2 after" 4 (Color_state.timestamp2 s 0 ~round:13)

let test_timestamp2_fewer_than_two_wraps () =
  let s = Color_state.create ~delta:2 ~bounds:[| 4 |] () in
  check "no wraps" 0 (Color_state.timestamp2 s 0 ~round:5);
  Color_state.on_arrival s ~round:0 ~request:[ (0, 2) ];
  check "one wrap" 0 (Color_state.timestamp2 s 0 ~round:5)

(* ---- split ablation ---- *)

let test_split_extremes_match_pure_policies () =
  (* Share 1.0 ranks exactly like ΔLRU; share 0.0 exactly like sticky
     EDF. Check cost equality on the adversarial inputs. *)
  let a = (Rrs_workload.Adversary.lru_killer ~n:8 ~delta:2 ~j:5 ~k:8).instance in
  let b = (Rrs_workload.Adversary.edf_killer ~n:8 ~delta:10 ~j:4 ~k:6).instance in
  let cost policy instance = Engine.cost ~n:8 ~policy instance in
  List.iter
    (fun instance ->
      check "share 1.0 = dlru"
        (cost (module Rrs_core.Policy_lru) instance)
        (cost (Rrs_core.Lru_edf_core.with_share 1.0) instance);
      check "share 0.0 = edf"
        (cost (module Rrs_core.Policy_edf) instance)
        (cost (Rrs_core.Lru_edf_core.with_share 0.0) instance);
      check "share 0.5 = dlru-edf"
        (cost (module Rrs_core.Policy_lru_edf) instance)
        (cost (Rrs_core.Lru_edf_core.with_share 0.5) instance))
    [ a; b ]

let test_only_combination_survives_both () =
  let a = Rrs_workload.Adversary.lru_killer ~n:8 ~delta:2 ~j:6 ~k:9 in
  let b = Rrs_workload.Adversary.edf_killer ~n:8 ~delta:10 ~j:4 ~k:8 in
  let ratio policy (adv : Rrs_workload.Adversary.lower_bound_input) =
    float_of_int (Engine.cost ~n:8 ~policy adv.instance)
    /. float_of_int adv.off_cost
  in
  let worst policy = max (ratio policy a) (ratio policy b) in
  let combo = worst (Rrs_core.Lru_edf_core.with_share 0.5) in
  check_bool "combination is O(1) on both" true (combo <= 3.0);
  check_bool "pure LRU blows up" true
    (worst (Rrs_core.Lru_edf_core.with_share 1.0) > 2.0 *. combo);
  check_bool "pure EDF blows up" true
    (worst (Rrs_core.Lru_edf_core.with_share 0.0) > 2.0 *. combo)

let test_lru_k_fails_appendix_a () =
  (* LRU-2 is still recency-only: Appendix A defeats it too. *)
  let adv = Rrs_workload.Adversary.lru_killer ~n:8 ~delta:2 ~j:6 ~k:9 in
  let lru2 = Engine.cost ~n:8 ~policy:(module Rrs_core.Policy_lru_k) adv.instance in
  let combo = Engine.cost ~n:8 ~policy:(module Rrs_core.Policy_lru_edf) adv.instance in
  check_bool "lru-2 much worse than the combination" true (lru2 > 3 * combo)

let prop_lru_k_invariants =
  QCheck2.Test.make ~name:"dlru-2: <= n/2 distinct colors, all duplicated"
    ~count:30 H.gen_rate_limited (fun instance ->
      let module S = H.Spy (Rrs_core.Policy_lru_k) in
      S.expected_copies := 2;
      let result, _ = H.run_validated ~n:8 ~policy:(module S) instance in
      H.stat result.stats "spy_max_distinct" <= 4
      && H.stat result.stats "spy_replication_violations" = 0)

let prop_split_policies_valid =
  QCheck2.Test.make ~name:"split ablation: all shares produce valid schedules"
    ~count:20 H.gen_rate_limited (fun instance ->
      List.for_all
        (fun share ->
          let policy = Rrs_core.Lru_edf_core.with_share share in
          let _ = H.run_validated ~n:8 ~policy instance in
          true)
        [ 0.0; 0.25; 0.5; 0.75; 1.0 ])

let quick name f = Alcotest.test_case name `Quick f
let prop p = QCheck_alcotest.to_alcotest p

let suite =
  [
    ( "extensions.lower_bounds",
      [
        quick "refined bound example" test_refined_bound_example;
        quick "refined bound can drop" test_refined_bound_prefers_dropping;
        prop prop_refined_dominates_plain;
        prop prop_refined_below_opt;
      ] );
    ( "extensions.lru2",
      [
        quick "second timestamps" test_timestamp2;
        quick "defaults without wraps" test_timestamp2_fewer_than_two_wraps;
        quick "lru-2 fails Appendix A" test_lru_k_fails_appendix_a;
        prop prop_lru_k_invariants;
      ] );
    ( "extensions.ablation",
      [
        quick "split extremes equal pure policies" test_split_extremes_match_pure_policies;
        quick "only the combination survives both adversaries"
          test_only_combination_survives_both;
        prop prop_split_policies_valid;
      ] );
  ]
