module Job_pool = Rrs_sim.Job_pool

(* Every key is [major * colors + minor] with [minor < colors]: the
   color id itself, or the color's static (bound, color) rank. *)
type t = {
  colors : int;
  tiebreak : int array; (* rank of (bounds.(c), c) among all colors *)
  deadline_limit : int; (* EDF deadlines must stay below this *)
}

let create ~bounds =
  let colors = Array.length bounds in
  let order = Array.init colors Fun.id in
  Array.stable_sort (fun a b -> Int.compare bounds.(a) bounds.(b)) order;
  let tiebreak = Array.make colors 0 in
  Array.iteri (fun rank color -> tiebreak.(color) <- rank) order;
  { colors; tiebreak; deadline_limit = max_int / (2 * max 1 colors) }

let too_large what value =
  invalid_arg (Printf.sprintf "Ranking: %s %d too large for a rank key" what value)

let edf_key t state pool color =
  let deadline = Color_state.deadline state color in
  if deadline >= t.deadline_limit then too_large "deadline" deadline;
  let idle = if Job_pool.nonidle pool color then 0 else t.deadline_limit in
  ((idle + deadline) * t.colors) + t.tiebreak.(color)

(* Larger timestamp = more recent = better. *)
let lru_key t state ~round color =
  (-Color_state.timestamp state color ~round * t.colors) + color

let job_key t pool color =
  let deadline = Job_pool.earliest_deadline pool color in
  if deadline >= t.deadline_limit then too_large "deadline" deadline;
  (deadline * t.colors) + t.tiebreak.(color)

let worst_edf t state pool set =
  let worst = ref (-1) and worst_key = ref min_int in
  for color = 0 to t.colors - 1 do
    if Color_set.mem set color then begin
      let key = edf_key t state pool color in
      if key > !worst_key then begin
        worst := color;
        worst_key := key
      end
    end
  done;
  if !worst < 0 then invalid_arg "Ranking.worst_edf: empty set";
  !worst
