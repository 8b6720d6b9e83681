(* In-memory spans for the traced run.

   A span is a name, a start, an end and the span that caused it. Spans
   are kept in preallocated arrays while the run measures and written
   out (TSV) only when it ends; once the arrays are full, further spans
   are counted as dropped rather than recorded. A layer's self time is
   its spans' duration minus the part covered by their child spans. *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable kinds : string array;
  kind : int array;
  start : int array;
  stop : int array;
  parent : int array;
  mutable len : int;
  mutable dropped : int;
}

let create capacity =
  {
    names = Hashtbl.create 32;
    kinds = [||];
    kind = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    parent = Array.make capacity (-1);
    len = 0;
    dropped = 0;
  }

(* The recorder of the traced run; [None] in untraced runs, where
   [enter]/[leave] cost one branch. *)
let current : t option ref = ref None

let kind_id t name =
  match Hashtbl.find_opt t.names name with
  | Some id -> id
  | None ->
      let id = Array.length t.kinds in
      Hashtbl.add t.names name id;
      t.kinds <- Array.append t.kinds [| name |];
      id

let no_span = -1

(* Open a span; returns its index (or [no_span]). *)
let enter ?(parent = no_span) name =
  match !current with
  | None -> no_span
  | Some t ->
      if t.len = Array.length t.kind then begin
        t.dropped <- t.dropped + 1;
        no_span
      end
      else begin
        let i = t.len in
        t.len <- i + 1;
        t.kind.(i) <- kind_id t name;
        t.parent.(i) <- parent;
        t.start.(i) <- Util.now_ns ();
        t.stop.(i) <- t.start.(i);
        i
      end

let leave i =
  match !current with
  | Some t when i >= 0 -> t.stop.(i) <- Util.now_ns ()
  | _ -> ()

(* Per span name: count, total ns, self ns (total minus children). *)
type row = { r_name : string; r_count : int; r_total_ns : int; r_self_ns : int }

let summary t =
  let kinds = Array.length t.kinds in
  let count = Array.make kinds 0
  and total = Array.make kinds 0
  and children = Array.make kinds 0 in
  for i = 0 to t.len - 1 do
    let d = t.stop.(i) - t.start.(i) in
    count.(t.kind.(i)) <- count.(t.kind.(i)) + 1;
    total.(t.kind.(i)) <- total.(t.kind.(i)) + d;
    let p = t.parent.(i) in
    if p >= 0 then children.(t.kind.(p)) <- children.(t.kind.(p)) + d
  done;
  List.init kinds (fun k ->
      {
        r_name = t.kinds.(k);
        r_count = count.(k);
        r_total_ns = total.(k);
        r_self_ns = total.(k) - children.(k);
      })

let print_summary oc t =
  Printf.fprintf oc "%-28s %10s %14s %14s %12s\n" "span" "count" "total ms"
    "self ms" "self us/span";
  List.iter
    (fun r ->
      Printf.fprintf oc "%-28s %10d %14.3f %14.3f %12.3f\n" r.r_name r.r_count
        (float_of_int r.r_total_ns /. 1e6)
        (float_of_int r.r_self_ns /. 1e6)
        (if r.r_count = 0 then 0.
         else float_of_int r.r_self_ns /. 1e3 /. float_of_int r.r_count))
    (summary t);
  if t.dropped > 0 then Printf.fprintf oc "(%d spans dropped: buffer full)\n" t.dropped

(* index, name, parent, start ns, end ns — one span per line. *)
let write t ~path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "index\tname\tparent\tstart_ns\tend_ns\n";
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" i t.kinds.(t.kind.(i))
          t.parent.(i) t.start.(i) t.stop.(i)
      done)
