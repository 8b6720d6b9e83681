module Instance = Rrs_sim.Instance
module Job_pool = Rrs_sim.Job_pool
module Rebuild = Rrs_sim.Rebuild
module Schedule = Rrs_sim.Schedule

type result = {
  schedule : Schedule.t;
  cost : int;
}

(* upcoming.(c) = prefix sums of arrivals of color c by round, so that
   jobs of c arriving in [a, b) = prefix.(c).(b) - prefix.(c).(a). *)
let arrival_prefixes (instance : Instance.t) =
  let num_colors = Instance.num_colors instance in
  let horizon = instance.horizon in
  let prefix = Array.make_matrix num_colors (horizon + 1) 0 in
  for round = 0 to horizon - 1 do
    for color = 0 to num_colors - 1 do
      prefix.(color).(round + 1) <- prefix.(color).(round)
    done;
    List.iter
      (fun (color, count) ->
        prefix.(color).(round + 1) <- prefix.(color).(round + 1) + count)
      instance.requests.(round)
  done;
  prefix

let run ~m (instance : Instance.t) =
  if m < 1 then invalid_arg "Greedy_offline.run: m must be >= 1";
  let bounds = instance.bounds in
  let num_colors = Array.length bounds in
  let delta = instance.delta in
  let horizon = instance.horizon in
  let prefix = arrival_prefixes instance in
  let upcoming color ~from_round ~until_round =
    let from_round = min from_round horizon in
    let until_round = min until_round horizon in
    if until_round <= from_round then 0
    else prefix.(color).(until_round) - prefix.(color).(from_round)
  in
  let pool = Job_pool.create ~num_colors in
  let colors = Array.make m None in
  let actions = ref [] in
  for round = 0 to horizon - 1 do
    ignore (Job_pool.drop_expired pool ~round);
    List.iter
      (fun (color, count) ->
        Job_pool.add pool ~color ~deadline:(round + bounds.(color)) ~count)
      instance.requests.(round);
    (* Work in sight for a color: pending now plus arrivals within one
       deadline window. *)
    let benefit color =
      Job_pool.pending pool color
      + upcoming color ~from_round:(round + 1)
          ~until_round:(round + 1 + bounds.(color))
    in
    let on_resource = Hashtbl.create m in
    Array.iter
      (function Some c -> Hashtbl.replace on_resource c () | None -> ())
      colors;
    (* Reconfigure resources whose color has no pending work to the best
       uncovered color whose work amortizes Delta. *)
    let candidates =
      List.init num_colors Fun.id
      |> List.filter (fun c -> not (Hashtbl.mem on_resource c))
      |> List.map (fun c -> (benefit c, c))
      |> List.filter (fun (b, _) -> b >= delta)
      |> List.sort (fun (a, _) (b, _) -> Int.compare b a)
      |> List.map snd
      |> ref
    in
    for k = 0 to m - 1 do
      let keep =
        match colors.(k) with
        | None -> false
        | Some c -> Job_pool.nonidle pool c || benefit c >= delta
      in
      if not keep then begin
        match !candidates with
        | [] -> ()
        | best :: rest ->
            candidates := rest;
            (match colors.(k) with
            | Some old -> Hashtbl.remove on_resource old
            | None -> ());
            colors.(k) <- Some best;
            Hashtbl.replace on_resource best ();
            actions :=
              Rebuild.Configure
                { round; mini_round = 0; location = k; color = best }
              :: !actions
      end
    done;
    (* Execute. *)
    for k = 0 to m - 1 do
      match colors.(k) with
      | None -> ()
      | Some color -> (
          match Job_pool.execute_one pool ~color ~round with
          | -1 -> ()
          | _ ->
              actions :=
                Rebuild.Run { round; mini_round = 0; location = k; color }
                :: !actions)
    done
  done;
  match Rebuild.rebuild ~instance ~n:m ~speed:1 ~actions:(List.rev !actions) with
  | Error message -> Error message
  | Ok schedule -> Ok { schedule; cost = Schedule.total_cost schedule }

let cost ~m instance =
  match run ~m instance with
  | Ok { cost; _ } -> cost
  | Error message -> failwith ("Greedy_offline.cost: " ^ message)
