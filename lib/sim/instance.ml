type t = {
  name : string;
  delta : int;
  bounds : int array;
  requests : Types.request array;
  horizon : int;
}

let make ?(name = "instance") ?horizon ~delta ~bounds ~arrivals () =
  if delta < 1 then invalid_arg "Instance.make: delta must be >= 1";
  if Array.length bounds = 0 then invalid_arg "Instance.make: no colors";
  Array.iteri
    (fun c d ->
      if d < 1 then
        invalid_arg (Printf.sprintf "Instance.make: bound of color %d is %d" c d))
    bounds;
  let num_colors = Array.length bounds in
  (* One validation pass. A negative count anywhere wins; otherwise the
     first arrival with a negative round or an unknown color is reported,
     naming its smallest unknown color that carries jobs. *)
  let first_error = ref None in
  let max_deadline = ref 0 in
  List.iter
    (fun (round, request) ->
      let unknown = ref None in
      List.iter
        (fun (color, count) ->
          if count < 0 then invalid_arg "Types.normalize_request: negative count";
          if count > 0 then
            if color < 0 || color >= num_colors then
              (match !unknown with
              | Some c when c <= color -> ()
              | _ -> unknown := Some color)
            else max_deadline := max !max_deadline (round + bounds.(color)))
        request;
      if !first_error = None then
        if round < 0 then first_error := Some "Instance.make: negative round"
        else
          Option.iter
            (fun color ->
              first_error :=
                Some (Printf.sprintf "Instance.make: unknown color %d" color))
            !unknown)
    arrivals;
  Option.iter invalid_arg !first_error;
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
  (* Push every pair that carries jobs (newest first), then normalize each
     round once, in arrival order: an already-normalized round — one
     arrival, or arrivals by ascending color — costs a scan, not a sort. *)
  let requests = Array.make horizon [] in
  List.iter
    (fun (round, request) ->
      List.iter
        (fun ((_, count) as pair) ->
          if count > 0 then requests.(round) <- pair :: requests.(round))
        request)
    arrivals;
  Array.iteri
    (fun round pushed ->
      match pushed with
      | [] | [ _ ] -> ()
      | _ -> requests.(round) <- Types.normalize_request (List.rev pushed))
    requests;
  { name; delta; bounds; requests; horizon }

let num_colors t = Array.length t.bounds

let total_jobs t =
  Array.fold_left (fun acc request -> acc + Types.request_size request) 0 t.requests

let jobs_of_color t color =
  Array.fold_left
    (fun acc request ->
      List.fold_left
        (fun acc (c, count) -> if c = color then acc + count else acc)
        acc request)
    0 t.requests

let for_all_arrivals t predicate =
  let ok = ref true in
  Array.iteri
    (fun round request ->
      List.iter
        (fun (color, count) -> if not (predicate round color count) then ok := false)
        request)
    t.requests;
  !ok

let is_batched t = for_all_arrivals t (fun round color _ -> round mod t.bounds.(color) = 0)

let is_rate_limited t =
  is_batched t && for_all_arrivals t (fun _ color count -> count <= t.bounds.(color))

let is_pow2 d = d > 0 && d land (d - 1) = 0
let bounds_pow2 t = Array.for_all is_pow2 t.bounds

let iter_jobs t f =
  Array.iteri
    (fun round request ->
      List.iter
        (fun (color, count) ->
          for _ = 1 to count do
            f { Types.color; arrival = round; deadline = round + t.bounds.(color) }
          done)
        request)
    t.requests

let nonempty_arrivals t =
  let acc = ref [] in
  for round = t.horizon - 1 downto 0 do
    if t.requests.(round) <> [] then acc := (round, t.requests.(round)) :: !acc
  done;
  !acc

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>instance %s: delta=%d colors=%d horizon=%d jobs=%d batched=%b \
     rate-limited=%b pow2=%b@]"
    t.name t.delta (num_colors t) t.horizon (total_jobs t) (is_batched t)
    (is_rate_limited t) (bounds_pow2 t)
