(** Algorithm ΔLRU (Section 3.1.1).

    Reconfiguration scheme: keep the [n/2] eligible colors with the most
    recent timestamps cached (each replicated in two locations), ties
    broken by the consistent color order. Not resource competitive — it
    may pin idle recently-used colors and starve a long-bound color with
    many pending jobs (Appendix A); implemented as a baseline. *)

module Topk = Rrs_ds.Topk

type t = {
  state : Color_state.t;
  ranking : Ranking.t;
  cached : Color_set.t;
  in_cache : int -> bool;
  layout : Cache_layout.t;
  eligible : int array; (* scratch, per reconfigure *)
  keys : int array; (* rank key per color *)
  want : int array; (* the selected colors, best first *)
}

let name = "dlru"

let create ~n ~delta ~bounds =
  let num_colors = Array.length bounds in
  let cached = Color_set.create ~num_colors in
  {
    state = Color_state.create ~delta ~bounds ();
    ranking = Ranking.create ~bounds;
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

let reconfigure t (view : Rrs_sim.Policy.view) ~target =
  let eligible = Color_state.fill_eligible t.state t.eligible in
  for i = 0 to eligible - 1 do
    let color = t.eligible.(i) in
    t.keys.(color) <- Ranking.lru_key t.ranking t.state ~round:view.round color
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
