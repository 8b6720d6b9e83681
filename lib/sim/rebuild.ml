type action =
  | Configure of { round : int; mini_round : int; location : int;
                   color : Types.color }
  | Run of { round : int; mini_round : int; location : int;
             color : Types.color }

exception Rebuild_error of string

let action_time = function
  | Configure { round; mini_round; _ } -> (round, mini_round, 0)
  | Run { round; mini_round; _ } -> (round, mini_round, 1)

let rebuild ~instance ~n ~speed ~actions =
  let (instance : Instance.t) = instance in
  let bounds = instance.bounds in
  let pool = Job_pool.create ~num_colors:(Array.length bounds) in
  let ledger = Ledger.create ~record_events:true ~delta:instance.delta () in
  let assignment = Array.make n (-1) in
  let pending_actions = ref actions in
  try
    let fail fmt = Printf.ksprintf (fun s -> raise (Rebuild_error s)) fmt in
    for round = 0 to instance.horizon - 1 do
      let dropped = Job_pool.drop_expired pool ~round in
      for i = 0 to dropped.length - 1 do
        let color = dropped.colors.(i) in
        Ledger.record_drop ledger ~round ~color ~count:dropped.jobs.(color)
      done;
      List.iter
        (fun (color, count) ->
          Job_pool.add pool ~color ~deadline:(round + bounds.(color)) ~count)
        instance.requests.(round);
      for mini_round = 0 to speed - 1 do
        let used = Array.make n false in
        let here action =
          let r, m, _ = action_time action in
          r = round && m = mini_round
        in
        (* Within a mini-round, consume Configure actions then Run
           actions; an interleaving error surfaces as out-of-order. *)
        let rec consume stage =
          match !pending_actions with
          | action :: rest when here action -> (
              match (action, stage) with
              | Configure { location; color; _ }, `Configure ->
                  pending_actions := rest;
                  if location < 0 || location >= n then
                    fail "round %d.%d: configure at bad location %d" round
                      mini_round location;
                  if assignment.(location) <> color then begin
                    Ledger.record_reconfig ledger ~round ~mini_round ~location
                      ~previous:assignment.(location) ~next:color;
                    assignment.(location) <- color
                  end;
                  consume `Configure
              | Configure _, `Run ->
                  fail "round %d.%d: configure action after run action" round
                    mini_round
              | Run { location; color; _ }, _ ->
                  pending_actions := rest;
                  if location < 0 || location >= n then
                    fail "round %d.%d: run at bad location %d" round mini_round
                      location;
                  if assignment.(location) <> color then
                    fail "round %d.%d: run of color %d on location %d colored %s"
                      round mini_round color location
                      (match assignment.(location) with
                      | -1 -> "black"
                      | c -> string_of_int c);
                  if used.(location) then
                    fail "round %d.%d: location %d executes twice" round
                      mini_round location;
                  used.(location) <- true;
                  (match Job_pool.execute_one pool ~color ~round with
                  | -1 ->
                      fail "round %d.%d: no pending job of color %d" round
                        mini_round color
                  | deadline ->
                      Ledger.record_execute ledger ~round ~mini_round ~location
                        ~color ~deadline);
                  consume `Run)
          | action :: _ ->
              let r, m, _ = action_time action in
              if r < round || (r = round && m < mini_round) then
                fail "action at %d.%d is out of order (now %d.%d)" r m round
                  mini_round
          | [] -> ()
        in
        consume `Configure
      done
    done;
    (match !pending_actions with
    | [] -> ()
    | action :: _ ->
        let r, m, _ = action_time action in
        fail "action at %d.%d is beyond the horizon" r m);
    Ok (Schedule.of_run ~instance ~n ~speed ledger)
  with Rebuild_error message -> Error message
