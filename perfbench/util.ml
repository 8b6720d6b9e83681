(* Small helpers shared by the workloads: clocks, order statistics, a
   growable sample buffer and the JSON the result line is made of. *)

let now_ns () = Int64.to_int (Rrs_obs.Clock.now_ns ())
let now_s () = Rrs_obs.Clock.now_s ()

(* CPU seconds (user + sys) of this process so far. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let fail fmt = Printf.ksprintf failwith fmt


(* Quantile [q] of a sample by linear interpolation between closest
   ranks (the same rule as Python's statistics.quantiles, inclusive). *)
let quantile q (values : float array) =
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median values = quantile 0.5 values
let median_list values = median (Array.of_list values)

(* Growable int buffer: per-round latency samples without per-sample
   allocation. *)
module Samples = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 65536 0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let length t = t.len
  let to_floats t = Array.init t.len (fun i -> float_of_int t.data.(i))

  (* Quantile of the slice [from, until). *)
  let quantile_range t ~from ~until q =
    quantile q (Array.init (until - from) (fun i -> float_of_int t.data.(from + i)))
end

(* ---- JSON output ---- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float carries; JSON has no NaN, so a missing figure
   is written as null. *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

(* A metric: name, unit, value. *)
type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let metrics_json metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
             (json_float m.value) (json_string m.unit_))
         metrics)
  ^ "}"
