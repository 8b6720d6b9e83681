module Job_pool = Rrs_sim.Job_pool

type result = {
  drops : int;
  executed : int;
  drops_by_round : (int * int) list;
}

let run ~m (instance : Rrs_sim.Instance.t) =
  if m < 1 then invalid_arg "Par_edf.run: m must be >= 1";
  let bounds = instance.bounds in
  let num_colors = Array.length bounds in
  let ranking = Ranking.create ~bounds in
  let pool = Job_pool.create ~num_colors in
  let drops = ref 0 in
  let executed = ref 0 in
  let drops_by_round = ref [] in
  for round = 0 to instance.horizon - 1 do
    let dropped = Job_pool.drop_expired pool ~round in
    let dropped_here = ref 0 in
    for i = 0 to dropped.length - 1 do
      dropped_here := !dropped_here + dropped.jobs.(dropped.colors.(i))
    done;
    if !dropped_here > 0 then begin
      drops := !drops + !dropped_here;
      drops_by_round := (round, !dropped_here) :: !drops_by_round
    end;
    List.iter
      (fun (color, count) ->
        Job_pool.add pool ~color ~deadline:(round + bounds.(color)) ~count)
      instance.requests.(round);
    (* Execute the m best-ranked pending jobs: job rank is (deadline,
       bound, color), and within a color the earliest deadline goes
       first, so it suffices to repeatedly take the best color. *)
    let remaining = ref m in
    while !remaining > 0 && Job_pool.total_pending pool > 0 do
      let best = ref (-1) and best_key = ref max_int in
      for color = 0 to num_colors - 1 do
        if Job_pool.nonidle pool color then begin
          let key = Ranking.job_key ranking pool color in
          if key < !best_key then begin
            best := color;
            best_key := key
          end
        end
      done;
      ignore (Job_pool.execute_one pool ~color:!best ~round);
      incr executed;
      decr remaining
    done
  done;
  { drops = !drops; executed = !executed; drops_by_round = List.rev !drops_by_round }

let drop_cost ~m instance = (run ~m instance).drops
let is_nice ~m instance = drop_cost ~m instance = 0
