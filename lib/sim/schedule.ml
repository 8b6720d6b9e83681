type t = {
  instance : Instance.t;
  n : int;
  speed : int;
  events : Ledger.event list;
}

let of_run ~instance ~n ~speed ledger =
  { instance; n; speed; events = Ledger.events ledger }

(* Paid reconfigurations: failed ones still cost Delta. *)
let reconfig_count t =
  List.fold_left
    (fun acc -> function
      | Ledger.Reconfig _ | Ledger.Reconfig_failed _ -> acc + 1
      | _ -> acc)
    0 t.events

let drop_count t =
  List.fold_left
    (fun acc -> function Ledger.Drop { count; _ } -> acc + count | _ -> acc)
    0 t.events

let exec_count t =
  List.fold_left
    (fun acc -> function Ledger.Execute _ -> acc + 1 | _ -> acc)
    0 t.events

let total_cost t = (t.instance.delta * reconfig_count t) + drop_count t

let aggregate_counts pairs =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (color, count) ->
      let current = try Hashtbl.find table color with Not_found -> 0 in
      Hashtbl.replace table color (current + count))
    pairs;
  Hashtbl.fold (fun color count acc -> (color, count) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let instance = t.instance in
  let bounds = instance.bounds in
  let pool = Job_pool.create ~num_colors:(Array.length bounds) in
  let assignment = Array.make t.n None in
  let offline = Array.make t.n false in
  let events = ref t.events in
  for round = 0 to instance.horizon - 1 do
    (* Fault transitions (round start, before the drop phase): a repair
       brings an offline location back black; a crash takes an online
       location down and clears its color. *)
    let rec take_faults () =
      match !events with
      | Ledger.Repair { round = r; location } :: rest when r = round ->
          events := rest;
          if location < 0 || location >= t.n then
            err "round %d: repair at bad location %d" round location
          else if not offline.(location) then
            err "round %d: repair of online location %d" round location
          else offline.(location) <- false;
          take_faults ()
      | Ledger.Crash { round = r; location } :: rest when r = round ->
          events := rest;
          if location < 0 || location >= t.n then
            err "round %d: crash at bad location %d" round location
          else if offline.(location) then
            err "round %d: crash of already-offline location %d" round location
          else begin
            offline.(location) <- true;
            assignment.(location) <- None
          end;
          take_faults ()
      | _ -> ()
    in
    take_faults ();
    (* Drop phase. *)
    let expected_drops =
      Job_pool.drops_to_list (Job_pool.drop_expired pool ~round)
    in
    let rec take_drops acc =
      match !events with
      | Ledger.Drop { round = r; color; count } :: rest when r = round ->
          events := rest;
          take_drops ((color, count) :: acc)
      | _ -> List.rev acc
    in
    let observed_drops = aggregate_counts (take_drops []) in
    if observed_drops <> expected_drops then
      err "round %d: drop events %s do not match expiring jobs %s" round
        (Format.asprintf "%a" Types.pp_request observed_drops)
        (Format.asprintf "%a" Types.pp_request expected_drops);
    (* Arrival phase. *)
    List.iter
      (fun (color, count) ->
        Job_pool.add pool ~color ~deadline:(round + bounds.(color)) ~count)
      instance.requests.(round);
    (* Mini-rounds. *)
    for mini_round = 0 to t.speed - 1 do
      let rec take_reconfigs () =
        match !events with
        | Ledger.Reconfig { round = r; mini_round = m; location; previous; next }
          :: rest
          when r = round && m = mini_round ->
            events := rest;
            if location < 0 || location >= t.n then
              err "round %d.%d: reconfig at bad location %d" round mini_round
                location
            else begin
              if offline.(location) then
                err "round %d.%d: offline location %d reconfigures" round
                  mini_round location;
              if assignment.(location) <> previous then
                err "round %d.%d: reconfig at location %d claims previous %s"
                  round mini_round location
                  (match previous with None -> "black" | Some c -> string_of_int c);
              if assignment.(location) = Some next then
                err "round %d.%d: reconfig at location %d to its own color %d"
                  round mini_round location next;
              assignment.(location) <- Some next
            end;
            take_reconfigs ()
        | Ledger.Reconfig_failed
            { round = r; mini_round = m; location; previous; attempted }
          :: rest
          when r = round && m = mini_round ->
            events := rest;
            if location < 0 || location >= t.n then
              err "round %d.%d: failed reconfig at bad location %d" round
                mini_round location
            else begin
              if offline.(location) then
                err "round %d.%d: offline location %d pays a failed reconfig"
                  round mini_round location;
              if assignment.(location) <> previous then
                err
                  "round %d.%d: failed reconfig at location %d claims \
                   previous %s"
                  round mini_round location
                  (match previous with None -> "black" | Some c -> string_of_int c);
              if assignment.(location) = Some attempted then
                err
                  "round %d.%d: failed reconfig at location %d to its own \
                   color %d"
                  round mini_round location attempted
              (* the old color stays: assignment is deliberately unchanged *)
            end;
            take_reconfigs ()
        | _ -> ()
      in
      take_reconfigs ();
      let used = Array.make t.n false in
      let rec take_executes () =
        match !events with
        | Ledger.Execute { round = r; mini_round = m; location; color; deadline }
          :: rest
          when r = round && m = mini_round ->
            events := rest;
            if location < 0 || location >= t.n then
              err "round %d.%d: execution at bad location %d" round mini_round
                location
            else begin
              if offline.(location) then
                err "round %d.%d: offline location %d executes" round mini_round
                  location;
              if used.(location) then
                err "round %d.%d: location %d executes twice" round mini_round
                  location;
              used.(location) <- true;
              (match assignment.(location) with
              | Some c when c = color -> ()
              | Some c ->
                  err "round %d.%d: location %d colored %d executes color %d" round
                    mini_round location c color
              | None ->
                  err "round %d.%d: black location %d executes color %d" round
                    mini_round location color);
              match Job_pool.execute_one pool ~color ~round with
              | -1 -> err "round %d.%d: phantom execution of color %d" round
                        mini_round color
              | d ->
                  if d <> deadline then
                    err
                      "round %d.%d: execution of color %d records deadline %d, \
                       earliest pending is %d"
                      round mini_round color deadline d
            end;
            take_executes ()
        | _ -> ()
      in
      take_executes ()
    done
  done;
  (match !events with
  | [] -> ()
  | Ledger.Reconfig { round; _ } :: _ -> err "unconsumed reconfig event at round %d" round
  | Ledger.Drop { round; _ } :: _ -> err "unconsumed drop event at round %d" round
  | Ledger.Execute { round; _ } :: _ -> err "unconsumed execute event at round %d" round
  | Ledger.Crash { round; _ } :: _ -> err "unconsumed crash event at round %d" round
  | Ledger.Repair { round; _ } :: _ -> err "unconsumed repair event at round %d" round
  | Ledger.Reconfig_failed { round; _ } :: _ ->
      err "unconsumed failed-reconfig event at round %d" round);
  match List.rev !errors with [] -> Ok () | errors -> Error errors
