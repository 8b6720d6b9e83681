(* Data-structure substrate tests: binary heap, top-k selection, counter
   map. *)

module Int_heap = Rrs_ds.Binary_heap.Make (Int)
module Topk = Rrs_ds.Topk
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
    ( "ds.counter_map",
      [
        quick "add/remove/count" test_counter_map_basic;
        quick "remove_min" test_counter_map_remove_min;
        quick "error cases" test_counter_map_errors;
        prop prop_counter_map_total;
      ] );
  ]
