module Types = Rrs_sim.Types
module Job_pool = Rrs_sim.Job_pool

type color_info = {
  mutable cnt : int;
  mutable dd : int;
  mutable eligible : bool;
  mutable last_wrap : int; (* round of the most recent wrap; -1 if none *)
  mutable prev_wrap : int; (* round of the wrap before that; -1 if none *)
  mutable prev2_wrap : int; (* round of the wrap before prev_wrap; -1 if none *)
  mutable epochs_ended : int;
  mutable active_in_epoch : bool; (* any arrival since the last epoch end *)
  mutable eligible_drops : int;
  mutable ineligible_drops : int;
  mutable last_timestamp : int; (* last value reported, to detect updates *)
}

type t = {
  delta : int;
  bounds : int array;
  info : color_info array;
  group_bounds : int array; (* the distinct bounds, ascending *)
  group_colors : int array array; (* colors of each bound, ascending *)
  mutable wraps : int;
  mutable timestamp_updates : int;
  mutable timestamp_event_log : (int * int) list; (* reverse chronological *)
  record_timestamp_events : bool;
  on_timestamp : (round:int -> color:int -> unit) option;
}

let fresh_info () =
  {
    cnt = 0;
    dd = 0;
    eligible = false;
    last_wrap = -1;
    prev_wrap = -1;
    prev2_wrap = -1;
    epochs_ended = 0;
    active_in_epoch = false;
    eligible_drops = 0;
    ineligible_drops = 0;
    last_timestamp = 0;
  }

let create ?(record_timestamp_events = false) ?on_timestamp ~delta ~bounds () =
  let num_colors = Array.length bounds in
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun color bound ->
      let colors = try Hashtbl.find groups bound with Not_found -> [] in
      Hashtbl.replace groups bound (color :: colors))
    bounds;
  let boundary_groups =
    Hashtbl.fold (fun bound colors acc -> (bound, List.rev colors) :: acc) groups []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> Array.of_list
  in
  {
    delta;
    bounds;
    info = Array.init num_colors (fun _ -> fresh_info ());
    group_bounds = Array.map fst boundary_groups;
    group_colors = Array.map (fun (_, colors) -> Array.of_list colors) boundary_groups;
    wraps = 0;
    timestamp_updates = 0;
    timestamp_event_log = [];
    record_timestamp_events;
    on_timestamp;
  }

let num_colors t = Array.length t.info
let eligible t color = t.info.(color).eligible
let deadline t color = t.info.(color).dd

(* Timestamp of [color] as of [round]: the latest wrap round strictly
   before [k], where [k] is the most recent multiple of the color's bound.
   Wraps happen only at multiples of the bound, so the two most recent
   wrap rounds suffice: [last_wrap <= k] always, with equality exactly
   when the wrap happened at boundary [k] itself. *)
(* The most recent multiple of the color's bound: a mask for the usual
   power-of-two bounds, a division otherwise. *)
let last_boundary t color ~round =
  let bound = t.bounds.(color) in
  if bound land (bound - 1) = 0 then round land lnot (bound - 1)
  else round - (round mod bound)

let timestamp t color ~round =
  let info = t.info.(color) in
  let k = last_boundary t color ~round in
  if info.last_wrap >= 0 && info.last_wrap < k then info.last_wrap
  else if info.prev_wrap >= 0 then info.prev_wrap
  else 0

(* LRU-2 timestamp: the second-to-last wrap round strictly before the
   most recent boundary [k] (O'Neil et al.'s LRU-K with K = 2, adapted to
   the ΔLRU notion of a reference = a counter wrap). *)
let timestamp2 t color ~round =
  let info = t.info.(color) in
  let k = last_boundary t color ~round in
  if info.last_wrap >= 0 && info.last_wrap < k then
    if info.prev_wrap >= 0 then info.prev_wrap else 0
  else if info.prev_wrap >= 0 then
    if info.prev2_wrap >= 0 then info.prev2_wrap else 0
  else 0

(* A timestamp update event of [color] (Section 3.4) happens when the
   derived timestamp changes value; we detect it at boundaries, where it
   can only change. *)
let note_timestamp t color ~round =
  let info = t.info.(color) in
  let current = timestamp t color ~round in
  if current <> info.last_timestamp then begin
    info.last_timestamp <- current;
    t.timestamp_updates <- t.timestamp_updates + 1;
    if t.record_timestamp_events then
      t.timestamp_event_log <- (round, color) :: t.timestamp_event_log;
    match t.on_timestamp with
    | None -> ()
    | Some hook -> hook ~round ~color
  end

let on_drop t ~round ~(dropped : Job_pool.drops) ~in_cache =
  (* Classify this round's drops with pre-reset eligibility. *)
  for i = 0 to dropped.length - 1 do
    let color = dropped.colors.(i) in
    let count = dropped.jobs.(color) in
    let info = t.info.(color) in
    if info.eligible then info.eligible_drops <- info.eligible_drops + count
    else info.ineligible_drops <- info.ineligible_drops + count
  done;
  (* Boundary resets: an eligible, uncached color becomes ineligible and
     its counter resets — the end of an epoch. *)
  for g = 0 to Array.length t.group_bounds - 1 do
    if round mod t.group_bounds.(g) = 0 then begin
      let colors = t.group_colors.(g) in
      for i = 0 to Array.length colors - 1 do
        let color = colors.(i) in
        let info = t.info.(color) in
        if info.eligible && not (in_cache color) then begin
          info.eligible <- false;
          info.cnt <- 0;
          info.epochs_ended <- info.epochs_ended + 1;
          info.active_in_epoch <- false
        end
      done
    end
  done

(* Arriving jobs update counters; a wrap makes the color eligible. *)
let rec count_arrivals t ~round = function
  | [] -> ()
  | (color, count) :: rest ->
      let info = t.info.(color) in
      if count > 0 then begin
        info.active_in_epoch <- true;
        info.cnt <- info.cnt + count;
        if info.cnt >= t.delta then begin
          info.cnt <- info.cnt mod t.delta;
          info.prev2_wrap <- info.prev_wrap;
          info.prev_wrap <- info.last_wrap;
          info.last_wrap <- round;
          t.wraps <- t.wraps + 1;
          if not info.eligible then info.eligible <- true
        end
      end;
      count_arrivals t ~round rest

let on_arrival t ~round ~request =
  (* Every color at its boundary refreshes its deadline. *)
  for g = 0 to Array.length t.group_bounds - 1 do
    if round mod t.group_bounds.(g) = 0 then begin
      let colors = t.group_colors.(g) in
      for i = 0 to Array.length colors - 1 do
        let color = colors.(i) in
        t.info.(color).dd <- round + t.bounds.(color);
        note_timestamp t color ~round
      done
    end
  done;
  count_arrivals t ~round request

let fill_eligible t dst =
  let count = ref 0 in
  for color = 0 to num_colors t - 1 do
    if t.info.(color).eligible then begin
      dst.(!count) <- color;
      incr count
    end
  done;
  !count

let stats t =
  let epochs = ref 0 and eligible_drops = ref 0 and ineligible_drops = ref 0 in
  Array.iter
    (fun info ->
      epochs := !epochs + info.epochs_ended + (if info.active_in_epoch then 1 else 0);
      eligible_drops := !eligible_drops + info.eligible_drops;
      ineligible_drops := !ineligible_drops + info.ineligible_drops)
    t.info;
  [
    ("epochs", !epochs);
    ("wraps", t.wraps);
    ("timestamp_updates", t.timestamp_updates);
    ("eligible_drops", !eligible_drops);
    ("ineligible_drops", !ineligible_drops);
  ]

let timestamp_events t = List.rev t.timestamp_event_log

(* ---- serialization (the rrs-snap/2 policy-blob building blocks) ----

   Field fragments, not a whole object, so a policy can splice them into
   its own flat blob next to its cached set and counters. The timestamp
   event log is deliberately NOT serialized: it grows with rounds served,
   which is exactly what checkpointed snapshots exist to avoid — its only
   consumer (super-epoch counting) is maintained incrementally via
   [on_timestamp] instead. *)

module Json = Rrs_sim.Event_sink.Json

let ints_to_json values =
  let buffer = Buffer.create 64 in
  Buffer.add_char buffer '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer (string_of_int v))
    values;
  Buffer.add_char buffer ']';
  Buffer.contents buffer

let serialize_fields t =
  let per_color f = ints_to_json (Array.map f t.info) in
  let bool b = if b then 1 else 0 in
  Printf.sprintf
    "\"cs_cnt\":%s,\"cs_dd\":%s,\"cs_eligible\":%s,\"cs_last_wrap\":%s,\
     \"cs_prev_wrap\":%s,\"cs_prev2_wrap\":%s,\"cs_epochs_ended\":%s,\
     \"cs_active\":%s,\"cs_eligible_drops\":%s,\"cs_ineligible_drops\":%s,\
     \"cs_last_timestamp\":%s,\"cs_wraps\":%d,\"cs_timestamp_updates\":%d"
    (per_color (fun i -> i.cnt))
    (per_color (fun i -> i.dd))
    (per_color (fun i -> bool i.eligible))
    (per_color (fun i -> i.last_wrap))
    (per_color (fun i -> i.prev_wrap))
    (per_color (fun i -> i.prev2_wrap))
    (per_color (fun i -> i.epochs_ended))
    (per_color (fun i -> bool i.active_in_epoch))
    (per_color (fun i -> i.eligible_drops))
    (per_color (fun i -> i.ineligible_drops))
    (per_color (fun i -> i.last_timestamp))
    t.wraps t.timestamp_updates

let deserialize_fields t fields =
  let colors = num_colors t in
  let per_color key apply =
    let values = Json.ints_field fields key in
    if Array.length values <> colors then
      raise
        (Json.Parse_error
           (Printf.sprintf "field %S: %d values for %d colors" key
              (Array.length values) colors));
    Array.iteri (fun color v -> apply t.info.(color) v) values
  in
  let as_bool key v =
    match v with
    | 0 -> false
    | 1 -> true
    | _ -> raise (Json.Parse_error (Printf.sprintf "field %S: expected 0/1" key))
  in
  per_color "cs_cnt" (fun i v -> i.cnt <- v);
  per_color "cs_dd" (fun i v -> i.dd <- v);
  per_color "cs_eligible" (fun i v -> i.eligible <- as_bool "cs_eligible" v);
  per_color "cs_last_wrap" (fun i v -> i.last_wrap <- v);
  per_color "cs_prev_wrap" (fun i v -> i.prev_wrap <- v);
  per_color "cs_prev2_wrap" (fun i v -> i.prev2_wrap <- v);
  per_color "cs_epochs_ended" (fun i v -> i.epochs_ended <- v);
  per_color "cs_active" (fun i v -> i.active_in_epoch <- as_bool "cs_active" v);
  per_color "cs_eligible_drops" (fun i v -> i.eligible_drops <- v);
  per_color "cs_ineligible_drops" (fun i v -> i.ineligible_drops <- v);
  per_color "cs_last_timestamp" (fun i v -> i.last_timestamp <- v);
  t.wraps <- Json.int_field fields "cs_wraps";
  t.timestamp_updates <- Json.int_field fields "cs_timestamp_updates";
  t.timestamp_event_log <- []
