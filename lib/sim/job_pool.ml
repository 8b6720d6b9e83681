type drops = {
  colors : Types.color array;
  mutable length : int;
  jobs : int array;
}

(* Color [c]'s entries live in [ring_deadline.(c)] / [ring_count.(c)]
   from index [head.(c)] on, [size.(c)] of them, wrapping at the ring's
   capacity (a power of two). *)
type t = {
  ring_deadline : int array array;
  ring_count : int array array;
  head : int array;
  size : int array;
  pending : int array; (* jobs per color *)
  mutable total : int;
  mutable now : int; (* expiry clock: deadlines below it are rejected *)
  drops : drops;
}

let initial_capacity = 4

let create ~num_colors =
  {
    ring_deadline = Array.init num_colors (fun _ -> Array.make initial_capacity 0);
    ring_count = Array.init num_colors (fun _ -> Array.make initial_capacity 0);
    head = Array.make num_colors 0;
    size = Array.make num_colors 0;
    pending = Array.make num_colors 0;
    total = 0;
    now = 0;
    drops =
      { colors = Array.make num_colors 0; length = 0; jobs = Array.make num_colors 0 };
  }

let pending t color = t.pending.(color)
let nonidle t color = t.pending.(color) > 0
let total_pending t = t.total

let earliest_deadline t color =
  if t.size.(color) = 0 then
    invalid_arg (Printf.sprintf "Job_pool.earliest_deadline: color %d is idle" color);
  t.ring_deadline.(color).(t.head.(color))

let deadlines t color =
  let ds = t.ring_deadline.(color) and ks = t.ring_count.(color) in
  let mask = Array.length ds - 1 in
  List.init t.size.(color) (fun i ->
      let slot = (t.head.(color) + i) land mask in
      (ds.(slot), ks.(slot)))

(* Double a full ring, unrolling it to start at slot 0. *)
let grow t color =
  let ds = t.ring_deadline.(color) and ks = t.ring_count.(color) in
  let capacity = Array.length ds in
  let head = t.head.(color) in
  let ds' = Array.make (2 * capacity) 0 and ks' = Array.make (2 * capacity) 0 in
  for i = 0 to capacity - 1 do
    let slot = (head + i) land (capacity - 1) in
    ds'.(i) <- ds.(slot);
    ks'.(i) <- ks.(slot)
  done;
  t.ring_deadline.(color) <- ds';
  t.ring_count.(color) <- ks';
  t.head.(color) <- 0

let add t ~color ~deadline ~count =
  if count < 0 then invalid_arg "Job_pool.add: negative count";
  if count > 0 then begin
    if deadline < t.now then invalid_arg "Job_pool.add: deadline already expired";
    let size = t.size.(color) in
    let mask = Array.length t.ring_deadline.(color) - 1 in
    let last = (t.head.(color) + size - 1) land mask in
    if size > 0 && t.ring_deadline.(color).(last) = deadline then
      t.ring_count.(color).(last) <- t.ring_count.(color).(last) + count
    else begin
      if size > 0 && deadline < t.ring_deadline.(color).(last) then
        invalid_arg
          (Printf.sprintf
             "Job_pool.add: deadline %d of color %d is before its latest \
              pending deadline %d (deadlines must arrive in order)"
             deadline color t.ring_deadline.(color).(last));
      if size > mask then grow t color;
      let mask = Array.length t.ring_deadline.(color) - 1 in
      let slot = (t.head.(color) + size) land mask in
      t.ring_deadline.(color).(slot) <- deadline;
      t.ring_count.(color).(slot) <- count;
      t.size.(color) <- size + 1
    end;
    t.pending.(color) <- t.pending.(color) + count;
    t.total <- t.total + count
  end

(* Pop every entry of [color] with deadline <= [round]; the jobs popped. *)
let expire t color ~round =
  let ds = t.ring_deadline.(color) and ks = t.ring_count.(color) in
  let mask = Array.length ds - 1 in
  let dropped = ref 0 in
  while t.size.(color) > 0 && ds.(t.head.(color)) <= round do
    let slot = t.head.(color) in
    dropped := !dropped + ks.(slot);
    t.head.(color) <- (slot + 1) land mask;
    t.size.(color) <- t.size.(color) - 1
  done;
  !dropped

let drop_expired t ~round =
  let drops = t.drops in
  for i = 0 to drops.length - 1 do
    drops.jobs.(drops.colors.(i)) <- 0
  done;
  drops.length <- 0;
  if round + 1 > t.now then t.now <- round + 1;
  if t.total > 0 then
    for color = 0 to Array.length t.pending - 1 do
      if t.size.(color) > 0 then begin
        let count = expire t color ~round in
        if count > 0 then begin
          t.pending.(color) <- t.pending.(color) - count;
          t.total <- t.total - count;
          drops.jobs.(color) <- count;
          drops.colors.(drops.length) <- color;
          drops.length <- drops.length + 1
        end
      end
    done;
  drops

let drops_to_list drops =
  List.init drops.length (fun i ->
      let color = drops.colors.(i) in
      (color, drops.jobs.(color)))

let execute_one t ~color ~round =
  if t.size.(color) = 0 then -1
  else begin
    let slot = t.head.(color) in
    let deadline = t.ring_deadline.(color).(slot) in
    if deadline <= round then
      invalid_arg
        (Printf.sprintf
           "Job_pool.execute_one: expired job (deadline %d <= round %d)" deadline
           round);
    let count = t.ring_count.(color).(slot) - 1 in
    if count = 0 then begin
      t.head.(color) <- (slot + 1) land (Array.length t.ring_deadline.(color) - 1);
      t.size.(color) <- t.size.(color) - 1
    end
    else t.ring_count.(color).(slot) <- count;
    t.pending.(color) <- t.pending.(color) - 1;
    t.total <- t.total - 1;
    deadline
  end

let copy t =
  {
    ring_deadline = Array.map Array.copy t.ring_deadline;
    ring_count = Array.map Array.copy t.ring_count;
    head = Array.copy t.head;
    size = Array.copy t.size;
    pending = Array.copy t.pending;
    total = t.total;
    now = t.now;
    drops =
      {
        colors = Array.copy t.drops.colors;
        length = t.drops.length;
        jobs = Array.copy t.drops.jobs;
      };
  }
