(* Data-structure substrate tests: binary heap, top-k selection, timing
   wheel, counter map. *)

module Int_heap = Rrs_ds.Binary_heap.Make (Int)
module Topk = Rrs_ds.Topk
module Timing_wheel = Rrs_ds.Timing_wheel
module Counter_map = Rrs_ds.Counter_map

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

(* ---- Binary heap ---- *)

let test_heap_empty () =
  let h = Int_heap.create () in
  check_bool "empty" true (Int_heap.is_empty h);
  check "length" 0 (Int_heap.length h);
  Alcotest.check_raises "peek raises" Not_found (fun () ->
      ignore (Int_heap.peek_min h));
  Alcotest.check_raises "pop raises" Not_found (fun () ->
      ignore (Int_heap.pop_min h));
  check_list "sorted empty" [] (Int_heap.to_sorted_list h)

let test_heap_push_pop () =
  let h = Int_heap.create () in
  List.iter (Int_heap.push h) [ 5; 3; 8; 1; 9; 2 ];
  check "length" 6 (Int_heap.length h);
  check "min" 1 (Int_heap.peek_min h);
  check "pop" 1 (Int_heap.pop_min h);
  check "pop" 2 (Int_heap.pop_min h);
  Int_heap.push h 0;
  check "pop new min" 0 (Int_heap.pop_min h);
  check_list "drain sorted" [ 3; 5; 8; 9 ] (Int_heap.to_sorted_list h)

let test_heap_duplicates () =
  let h = Int_heap.of_list [ 2; 2; 1; 1; 3 ] in
  check_list "sorted with dups" [ 1; 1; 2; 2; 3 ] (Int_heap.to_sorted_list h);
  check "length preserved" 5 (Int_heap.length h)

let test_heap_of_list_invariant () =
  let h = Int_heap.of_list [ 9; 4; 7; 1; 0; 8; 8; 2 ] in
  check_bool "invariant" true (Int_heap.check_invariant h)

let test_heap_clear () =
  let h = Int_heap.of_list [ 1; 2; 3 ] in
  Int_heap.clear h;
  check "cleared" 0 (Int_heap.length h);
  Int_heap.push h 7;
  check "reusable" 7 (Int_heap.pop_min h)

let test_heap_grow () =
  let h = Int_heap.create ~capacity:1 () in
  for i = 100 downto 1 do
    Int_heap.push h i
  done;
  check "length" 100 (Int_heap.length h);
  check_bool "invariant after growth" true (Int_heap.check_invariant h);
  check "min" 1 (Int_heap.pop_min h)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap: to_sorted_list sorts any list" ~count:200
    QCheck2.Gen.(list (int_bound 1000))
    (fun xs ->
      let h = Int_heap.of_list xs in
      Int_heap.to_sorted_list h = List.sort Int.compare xs)

let prop_heap_pop_order =
  QCheck2.Test.make ~name:"heap: pops are nondecreasing under interleaved pushes"
    ~count:200
    QCheck2.Gen.(list (int_bound 100))
    (fun xs ->
      let h = Int_heap.create () in
      let sorted = List.sort Int.compare xs in
      List.iter (Int_heap.push h) xs;
      let drained = List.init (List.length xs) (fun _ -> Int_heap.pop_min h) in
      drained = sorted && Int_heap.is_empty h)

(* ---- Topk ---- *)

(* Select among [src] by [keys], returning the chosen elements. *)
let topk ~keys ~k src =
  let src = Array.of_list src in
  let dst = Array.make (Array.length src) (-1) in
  let m = Topk.select ~keys ~k src ~len:(Array.length src) dst in
  Array.to_list (Array.sub dst 0 m)

let test_topk_basic () =
  let keys = Array.init 10 Fun.id in
  check_list "3 smallest" [ 1; 2; 3 ] (topk ~keys ~k:3 [ 7; 3; 9; 1; 5; 2 ]);
  check_list "k larger than list" [ 1; 3 ] (topk ~keys ~k:10 [ 3; 1 ]);
  check_list "k zero" [] (topk ~keys ~k:0 [ 1; 2 ]);
  check_list "k negative" [] (topk ~keys ~k:(-1) [ 1 ])

let test_topk_reverse_order () =
  let keys = Array.init 10 (fun x -> -x) in
  check_list "3 largest" [ 9; 7; 5 ] (topk ~keys ~k:3 [ 7; 3; 9; 1; 5; 2 ])

let prop_topk_matches_sort =
  QCheck2.Test.make ~name:"topk: equals sorted prefix" ~count:300
    QCheck2.Gen.(
      triple (array_size (return 64) (int_bound 20)) (list (int_bound 63))
        (int_bound 12))
    (fun (keys, xs, k) ->
      (* Distinct elements, keys with ties: equal keys keep source order. *)
      let xs = List.sort_uniq Int.compare xs |> List.rev in
      let expected =
        List.stable_sort (fun a b -> Int.compare keys.(a) keys.(b)) xs
        |> List.filteri (fun i _ -> i < k)
      in
      topk ~keys ~k xs = expected)

(* ---- Timing wheel ---- *)

let test_wheel_basic () =
  let w = Timing_wheel.create () in
  Timing_wheel.add w ~time:3 "a";
  Timing_wheel.add w ~time:1 "b";
  Timing_wheel.add w ~time:3 "c";
  check "count" 3 (Timing_wheel.length w);
  let fired = ref [] in
  Timing_wheel.advance w ~time:4 (fun t v -> fired := (t, v) :: !fired);
  Alcotest.(check (list (pair int string)))
    "fires in time order, FIFO within a bucket"
    [ (1, "b"); (3, "a"); (3, "c") ]
    (List.rev !fired);
  check "drained" 0 (Timing_wheel.length w);
  check "now" 4 (Timing_wheel.now w)

let test_wheel_past_add_rejected () =
  let w = Timing_wheel.create () in
  Timing_wheel.advance w ~time:5 (fun _ _ -> ());
  Alcotest.check_raises "past add"
    (Invalid_argument "Timing_wheel.add: time 3 is before now 5") (fun () ->
      Timing_wheel.add w ~time:3 ())

let test_wheel_growth () =
  let w = Timing_wheel.create ~horizon:2 () in
  Timing_wheel.add w ~time:0 0;
  Timing_wheel.add w ~time:100 100;
  Timing_wheel.add w ~time:7 7;
  let fired = ref [] in
  Timing_wheel.advance w ~time:101 (fun t _ -> fired := t :: !fired);
  check_list "all fire in order" [ 0; 7; 100 ] (List.rev !fired)

let test_wheel_grow_beyond_64 () =
  (* The job pool's wheel uses a 64-slot horizon; adds past the current
     window must grow and re-slot pending values at their absolute times,
     including after a partial advance (so slot indices are offset). *)
  let w = Timing_wheel.create ~horizon:64 () in
  Timing_wheel.add w ~time:3 3;
  Timing_wheel.advance w ~time:10 (fun _ _ -> ());
  Timing_wheel.add w ~time:20 20;
  Timing_wheel.add w ~time:73 73;
  (* last slot of the 64-wide window *)
  Timing_wheel.add w ~time:74 74;
  (* first grow *)
  Timing_wheel.add w ~time:300 300;
  (* multiple doublings *)
  let fired = ref [] in
  Timing_wheel.advance w ~time:301 (fun t v -> fired := (t, v) :: !fired);
  Alcotest.(check (list (pair int int)))
    "re-slotted in time order"
    [ (20, 20); (73, 73); (74, 74); (300, 300) ]
    (List.rev !fired);
  check "drained" 0 (Timing_wheel.length w);
  check "clock at target" 301 (Timing_wheel.now w)

let test_wheel_copy () =
  let w = Timing_wheel.create () in
  Timing_wheel.add w ~time:2 "a";
  Timing_wheel.add w ~time:9 "b";
  Timing_wheel.advance w ~time:1 (fun _ _ -> ());
  let c = Timing_wheel.copy w in
  check "copy clock" (Timing_wheel.now w) (Timing_wheel.now c);
  check "copy count" 2 (Timing_wheel.length c);
  (* Advancing the copy must not disturb the original. *)
  let fired = ref [] in
  Timing_wheel.advance c ~time:10 (fun t _ -> fired := t :: !fired);
  check_list "copy fires both" [ 2; 9 ] (List.rev !fired);
  check "original still holds both" 2 (Timing_wheel.length w);
  check "original clock unchanged" 1 (Timing_wheel.now w);
  (* The copy keeps the original's clock, so past adds stay rejected. *)
  Alcotest.check_raises "copy rejects past add"
    (Invalid_argument "Timing_wheel.add: time 0 is before now 10") (fun () ->
      Timing_wheel.add c ~time:0 "x")

let test_wheel_pending_at () =
  let w = Timing_wheel.create () in
  Timing_wheel.add w ~time:2 "x";
  Timing_wheel.add w ~time:2 "y";
  Alcotest.(check (list string)) "peek" [ "x"; "y" ] (Timing_wheel.pending_at w ~time:2);
  check "peek does not remove" 2 (Timing_wheel.length w)

let prop_wheel_delivers_everything =
  QCheck2.Test.make ~name:"wheel: every add is delivered exactly once at its time"
    ~count:200
    QCheck2.Gen.(list (int_bound 200))
    (fun times ->
      let w = Timing_wheel.create ~horizon:4 () in
      List.iteri (fun i t -> Timing_wheel.add w ~time:t (i, t)) times;
      let fired = ref [] in
      Timing_wheel.advance w ~time:201 (fun t (i, t')  ->
          fired := (i, t, t') :: !fired);
      List.length !fired = List.length times
      && List.for_all (fun (_, t, t') -> t = t') !fired
      && Timing_wheel.length w = 0)

(* ---- Counter map ---- *)

let test_counter_map_basic () =
  let m = Counter_map.empty in
  let m = Counter_map.add m 5 ~count:2 in
  let m = Counter_map.add m 3 ~count:1 in
  let m = Counter_map.add m 5 ~count:1 in
  check "total" 4 (Counter_map.total m);
  check "cardinal" 2 (Counter_map.cardinal m);
  check "count 5" 3 (Counter_map.count m 5);
  Alcotest.(check (option int)) "min" (Some 3) (Counter_map.min_key m);
  let m = Counter_map.remove m 5 ~count:2 in
  check "count after remove" 1 (Counter_map.count m 5);
  let removed, m = Counter_map.remove_all m 3 in
  check "removed count" 1 removed;
  Alcotest.(check (option int)) "new min" (Some 5) (Counter_map.min_key m)

let test_counter_map_remove_min () =
  let m = Counter_map.of_list [ (4, 2); (9, 1) ] in
  (match Counter_map.remove_min m with
  | Some (4, m') ->
      check "remaining total" 2 (Counter_map.total m');
      check "remaining 4s" 1 (Counter_map.count m' 4)
  | _ -> Alcotest.fail "expected min 4");
  Alcotest.(check (option (pair int int)))
    "empty remove_min" None
    (Option.map (fun (k, m) -> (k, Counter_map.total m))
       (Counter_map.remove_min Counter_map.empty))

let test_counter_map_errors () =
  Alcotest.check_raises "negative add"
    (Invalid_argument "Counter_map.add: negative count") (fun () ->
      ignore (Counter_map.add Counter_map.empty 1 ~count:(-1)));
  Alcotest.check_raises "over-remove"
    (Invalid_argument "Counter_map.remove: not enough occurrences") (fun () ->
      ignore (Counter_map.remove (Counter_map.of_list [ (1, 1) ]) 1 ~count:2))

let prop_counter_map_total =
  QCheck2.Test.make ~name:"counter_map: total equals sum of counts" ~count:300
    QCheck2.Gen.(list (pair (int_bound 20) (int_bound 5)))
    (fun pairs ->
      let m = Counter_map.of_list pairs in
      Counter_map.total m = List.fold_left (fun acc (_, c) -> acc + c) 0 pairs
      && List.for_all (fun (_, c) -> c > 0) (Counter_map.to_list m))

let quick name f = Alcotest.test_case name `Quick f
let prop p = QCheck_alcotest.to_alcotest p

let suite =
  [
    ( "ds.heap",
      [
        quick "empty heap" test_heap_empty;
        quick "push/pop ordering" test_heap_push_pop;
        quick "duplicates preserved" test_heap_duplicates;
        quick "of_list heapifies" test_heap_of_list_invariant;
        quick "clear and reuse" test_heap_clear;
        quick "growth" test_heap_grow;
        prop prop_heap_sorts;
        prop prop_heap_pop_order;
      ] );
    ( "ds.topk",
      [
        quick "basic selection" test_topk_basic;
        quick "custom order" test_topk_reverse_order;
        prop prop_topk_matches_sort;
      ] );
    ( "ds.timing_wheel",
      [
        quick "ordered delivery" test_wheel_basic;
        quick "past add rejected" test_wheel_past_add_rejected;
        quick "growth" test_wheel_growth;
        quick "growth beyond the 64-slot horizon" test_wheel_grow_beyond_64;
        quick "copy preserves clock and is independent" test_wheel_copy;
        quick "pending_at peeks" test_wheel_pending_at;
        prop prop_wheel_delivers_everything;
      ] );
    ( "ds.counter_map",
      [
        quick "add/remove/count" test_counter_map_basic;
        quick "remove_min" test_counter_map_remove_min;
        quick "error cases" test_counter_map_errors;
        prop prop_counter_map_total;
      ] );
  ]
