(* Instance construction against the quadratic implementation it
   replaced: equal requests on valid arrivals, the same exception and
   message on invalid ones, the normalizer's identity on normalized
   input, and a per-job allocation bound on generation. *)

module Instance = Rrs_sim.Instance
module Types = Rrs_sim.Types

let check_bool = Alcotest.(check bool)

(* ---- Reference implementations ----

   The Hashtbl-based normalizer and the [Instance.make] that re-normalized
   [requests.(round) @ request] for every arrival, as they were before the
   linear rewrite. Copied verbatim, except that the reference make calls
   the reference normalizer and returns [(horizon, requests)], since
   [Instance.t] is private. *)

let normalize_request_ref request =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (color, count) ->
      if count < 0 then invalid_arg "Types.normalize_request: negative count";
      if count > 0 then
        let current = try Hashtbl.find table color with Not_found -> 0 in
        Hashtbl.replace table color (current + count))
    request;
  Hashtbl.fold (fun color count acc -> (color, count) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let make_ref ?horizon ~delta ~bounds ~arrivals () =
  if delta < 1 then invalid_arg "Instance.make: delta must be >= 1";
  if Array.length bounds = 0 then invalid_arg "Instance.make: no colors";
  Array.iteri
    (fun c d ->
      if d < 1 then
        invalid_arg (Printf.sprintf "Instance.make: bound of color %d is %d" c d))
    bounds;
  let num_colors = Array.length bounds in
  let arrivals =
    List.map (fun (round, request) -> (round, normalize_request_ref request)) arrivals
  in
  let max_deadline = ref 0 in
  List.iter
    (fun (round, request) ->
      if round < 0 then invalid_arg "Instance.make: negative round";
      List.iter
        (fun (color, _count) ->
          if color < 0 || color >= num_colors then
            invalid_arg (Printf.sprintf "Instance.make: unknown color %d" color);
          max_deadline := max !max_deadline (round + bounds.(color)))
        request)
    arrivals;
  let horizon =
    match horizon with
    | None -> max 1 (!max_deadline + 1)
    | Some h ->
        if h < !max_deadline + 1 then
          invalid_arg
            (Printf.sprintf "Instance.make: horizon %d truncates deadline %d" h
               !max_deadline);
        h
  in
  let requests = Array.make horizon [] in
  List.iter
    (fun (round, request) ->
      requests.(round) <- normalize_request_ref (requests.(round) @ request))
    arrivals;
  (horizon, requests)

(* ---- Outcomes ---- *)

type 'a outcome = Built of 'a | Raised of string

let outcome f = match f () with x -> Built x | exception e -> Raised (Printexc.to_string e)

let show_outcome show = function
  | Built x -> show x
  | Raised e -> "raised " ^ e

let show_request request = Format.asprintf "%a" Types.pp_request request

let show_built (horizon, requests) =
  Printf.sprintf "horizon %d: %s" horizon
    (String.concat " " (Array.to_list (Array.map show_request requests)))

let build ?horizon ~bounds arrivals () =
  let t = Instance.make ?horizon ~delta:2 ~bounds ~arrivals () in
  (t.horizon, t.requests)

(* The reference indexed [requests.(round)] even for an arrival that
   carries no job, so such an arrival past the horizon raised "index out
   of bounds"; an arrival without jobs is now a no-op wherever it lands.
   Everywhere else the reference on the raw arrivals is the expectation. *)
let expected ?horizon ~bounds arrivals =
  match outcome (make_ref ?horizon ~delta:2 ~bounds ~arrivals) with
  | Raised "Invalid_argument(\"index out of bounds\")" ->
      let carries_jobs (round, request) =
        round < 0 || List.exists (fun (_, count) -> count <> 0) request
      in
      outcome
        (make_ref ?horizon ~delta:2 ~bounds
           ~arrivals:(List.filter carries_jobs arrivals))
  | reference -> reference

(* ---- Generators ---- *)

let bounds = [| 1; 2; 3; 4; 8 |]

(* Requests with unsorted colors, duplicate colors and zero counts;
   [bad] widens colors, counts and rounds past their valid ranges so that
   one case can combine several errors. *)
let gen_arrivals ~bad =
  let open QCheck2.Gen in
  let color = if bad then int_range (-2) 6 else int_bound 4 in
  let count =
    if bad then frequency [ (12, int_bound 3); (1, int_range (-2) (-1)) ]
    else frequency [ (4, int_range 1 3); (1, return 0) ]
  in
  let round =
    if bad then frequency [ (12, int_bound 12); (1, int_range (-3) (-1)) ]
    else int_bound 12
  in
  list_size (int_bound 12) (pair round (list_size (int_bound 5) (pair color count)))

let gen_horizon =
  QCheck2.Gen.(option (int_range 0 30))

let print_case (horizon, arrivals) =
  Printf.sprintf "horizon %s, arrivals %s"
    (match horizon with None -> "-" | Some h -> string_of_int h)
    (String.concat "; "
       (List.map
          (fun (round, request) ->
            Printf.sprintf "%d:%s" round
              (String.concat ","
                 (List.map (fun (c, k) -> Printf.sprintf "%d*%d" c k) request)))
          arrivals))

let agrees (horizon, arrivals) =
  let got = outcome (build ?horizon ~bounds arrivals) in
  let want = expected ?horizon ~bounds arrivals in
  got = want
  || QCheck2.Test.fail_reportf "got %s, want %s"
       (show_outcome show_built got)
       (show_outcome show_built want)

let prop_valid_arrivals =
  QCheck2.Test.make ~name:"make: equal requests on valid arrivals" ~count:500
    ~print:print_case
    QCheck2.Gen.(pair (option (int_range 21 30)) (gen_arrivals ~bad:false))
    agrees

let prop_invalid_arrivals =
  QCheck2.Test.make
    ~name:"make: same exception and message on invalid arrivals" ~count:1000
    ~print:print_case
    QCheck2.Gen.(pair gen_horizon (gen_arrivals ~bad:true))
    agrees

let prop_normalize =
  QCheck2.Test.make ~name:"normalize_request: equals the reference" ~count:500
    ~print:(fun request -> print_case (None, [ (0, request) ]))
    QCheck2.Gen.(
      list_size (int_bound 10)
        (pair (int_range (-3) 8)
           (frequency [ (12, int_bound 4); (1, int_range (-2) (-1)) ])))
    (fun request ->
      outcome (fun () -> Types.normalize_request request)
      = outcome (fun () -> normalize_request_ref request))

(* ---- Unit cases ---- *)

let test_normalized_is_identity () =
  List.iter
    (fun request ->
      check_bool (show_request request) true
        (Types.normalize_request request == request))
    [ []; [ (0, 1) ]; [ (-4, 2); (0, 1); (3, 7) ]; [ (1, 5); (2, 1); (9, 3) ] ]

(* Cases the generators reach only by chance. *)
let test_error_precedence () =
  let bounds = [| 2; 4 |] in
  List.iter
    (fun (horizon, arrivals) ->
      Alcotest.(check string)
        (print_case (horizon, arrivals))
        (show_outcome show_built (expected ?horizon ~bounds arrivals))
        (show_outcome show_built (outcome (build ?horizon ~bounds arrivals))))
    [
      (* A negative count anywhere beats an earlier negative round. *)
      (None, [ (-1, [ (0, 1) ]); (3, [ (0, -1) ]) ]);
      (* The first bad arrival wins; within it the round, then the
         smallest unknown color that carries jobs. *)
      (None, [ (0, [ (7, 1); (-2, 0); (5, 1) ]); (-1, []) ]);
      (None, [ (-1, [ (9, 1) ]); (0, [ (5, 1) ]) ]);
      (* Arrival errors beat a truncating horizon. *)
      (Some 1, [ (4, [ (1, 1) ]); (5, [ (2, 1) ]) ]);
      (Some 1, [ (4, [ (1, 1) ]) ]);
      (Some 0, []);
      (* A job-free arrival past the horizon. *)
      (None, [ (0, [ (0, 1) ]); (40, [ (1, 0) ]) ]);
    ]

(* ---- Allocation gate ----

   Generating the engine benchmark's workload at a tenth of its horizon
   allocates 24-33 minor words per job; the quadratic construction
   allocated 122-180. *)
let test_generation_allocation () =
  List.iter
    (fun seed ->
      let spec =
        Printf.sprintf "uniform:colors=32,load=0.9,horizon=2000,seed=%d" seed
      in
      let before = Gc.minor_words () in
      match Rrs_workload.Spec.parse spec with
      | Error message -> Alcotest.fail message
      | Ok instance ->
          let per_job =
            (Gc.minor_words () -. before)
            /. float_of_int (Instance.total_jobs instance)
          in
          if per_job > 50.0 then
            Alcotest.failf "%s allocates %.1f minor words per job" spec per_job)
    [ 1; 2; 3 ]

let quick name f = Alcotest.test_case name `Quick f
let prop p = QCheck_alcotest.to_alcotest p

let suite =
  [
    ( "sim.instance_make",
      [
        quick "normalized request returned as is" test_normalized_is_identity;
        quick "error precedence" test_error_precedence;
        prop prop_normalize;
        prop prop_valid_arrivals;
        prop prop_invalid_arrivals;
      ] );
    ( "workload.allocation",
      [ quick "generation allocates <= 50 words per job" test_generation_allocation ] );
  ]
