(** ΔLRU-2: the LRU-K replacement idea of O'Neil et al. (paper related
    work, [12]) transplanted into the ΔLRU setting.

    Identical to {!Policy_lru} except colors are ranked by their
    {e second-to-last} counter-wrap round (ties broken by the last wrap,
    then the consistent color order). LRU-K resists single-burst pollution
    better than LRU, but it is still a pure-recency scheme: it ignores
    idleness and deadlines, so the Appendix A adversary defeats it the
    same way it defeats ΔLRU — the baseline demonstrates that the EDF
    half of ΔLRU-EDF is doing real work. *)

module Topk = Rrs_ds.Topk

type t = {
  state : Color_state.t;
  cached : Color_set.t;
  in_cache : int -> bool;
  layout : Cache_layout.t;
  eligible : int array; (* scratch, per reconfigure *)
  keys : int array; (* rank key per color *)
  want : int array; (* the selected colors, best first *)
}

let name = "dlru-2"

let create ~n ~delta ~bounds =
  let num_colors = Array.length bounds in
  let cached = Color_set.create ~num_colors in
  {
    state = Color_state.create ~delta ~bounds ();
    cached;
    in_cache = Color_set.mem cached;
    layout = Cache_layout.create ~num_colors;
    eligible = Array.make num_colors 0;
    keys = Array.make num_colors 0;
    want = Array.make (max 0 (n / 2)) 0;
  }

let on_drop t ~round ~dropped =
  Color_state.on_drop t.state ~round ~dropped ~in_cache:t.in_cache

let on_arrival t ~round ~request = Color_state.on_arrival t.state ~round ~request

(* Most recent second-to-last wrap first, then most recent last wrap,
   then the consistent color order. Both timestamps lie in [0, round],
   so [(ts2 * (round + 1) + ts) * colors + color] orders lexicographically
   while it fits an int. *)
let lru2_key state ~round ~colors color =
  let span = round + 1 in
  if span > 0 && span > max_int / span / colors then
    invalid_arg
      (Printf.sprintf "Policy_lru_k: round %d too large for a rank key" round);
  let recency =
    (Color_state.timestamp2 state color ~round * span)
    + Color_state.timestamp state color ~round
  in
  (-recency * colors) + color

let reconfigure t (view : Rrs_sim.Policy.view) ~target =
  let colors = Array.length t.keys in
  let eligible = Color_state.fill_eligible t.state t.eligible in
  for i = 0 to eligible - 1 do
    let color = t.eligible.(i) in
    t.keys.(color) <- lru2_key t.state ~round:view.round ~colors color
  done;
  let len =
    Topk.select ~keys:t.keys ~k:(view.n / 2) t.eligible ~len:eligible t.want
  in
  Color_set.clear t.cached;
  for i = 0 to len - 1 do
    Color_set.add t.cached t.want.(i)
  done;
  Cache_layout.place t.layout ~copies:2 ~current:view.assignment ~want:t.want
    ~len ~target

let stats t = ("cached", Color_set.cardinal t.cached) :: Color_state.stats t.state

module Json = Rrs_sim.Event_sink.Json

let serialize t =
  Printf.sprintf "{\"cached\":%s,%s}"
    (Json.ints (Color_set.to_list t.cached))
    (Color_state.serialize_fields t.state)

let deserialize t blob =
  let fields = Json.parse_fields blob in
  Color_state.deserialize_fields t.state fields;
  Color_set.clear t.cached;
  Array.iter (Color_set.add t.cached) (Json.ints_field fields "cached")
