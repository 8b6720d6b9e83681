(** Algorithm EDF (Section 3.1.2).

    Eligible colors are ranked nonidle-first, then by ascending deadline,
    delay bound, and color id. Any nonidle eligible color in the top
    [n/2] rankings that is missing from the cache is brought in; when the
    cache is full, the lowest-ranked cached color is evicted. The cache
    is sticky — colors stay until displaced — which is what the appendix
    B adversary exploits to force thrashing. *)

module Job_pool = Rrs_sim.Job_pool
module Topk = Rrs_ds.Topk

type t = {
  state : Color_state.t;
  ranking : Ranking.t;
  cached : Color_set.t;
  in_cache : int -> bool;
  layout : Cache_layout.t;
  eligible : int array; (* scratch, per reconfigure *)
  keys : int array; (* rank key per color *)
  top : int array; (* the best-ranked eligible colors *)
  want : int array; (* the cached set in placement order *)
  mutable evictions : int;
}

let name = "edf"

let create ~n:_ ~delta ~bounds =
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
    top = Array.make num_colors 0;
    want = Array.make num_colors 0;
    evictions = 0;
  }

let on_drop t ~round ~dropped =
  Color_state.on_drop t.state ~round ~dropped ~in_cache:t.in_cache

let on_arrival t ~round ~request = Color_state.on_arrival t.state ~round ~request

let reconfigure t (view : Rrs_sim.Policy.view) ~target =
  let capacity = view.n / 2 in
  let pool = view.pool in
  let eligible = Color_state.fill_eligible t.state t.eligible in
  for i = 0 to eligible - 1 do
    let color = t.eligible.(i) in
    t.keys.(color) <- Ranking.edf_key t.ranking t.state pool color
  done;
  let top = Topk.select ~keys:t.keys ~k:capacity t.eligible ~len:eligible t.top in
  for i = 0 to top - 1 do
    let color = t.top.(i) in
    if Job_pool.nonidle pool color && not (Color_set.mem t.cached color) then begin
      Color_set.add t.cached color;
      if Color_set.cardinal t.cached > capacity then begin
        Color_set.remove t.cached
          (Ranking.worst_edf t.ranking t.state pool t.cached);
        t.evictions <- t.evictions + 1
      end
    end
  done;
  let len = Color_set.fill_table_order t.cached t.want ~from:0 in
  Cache_layout.place t.layout ~copies:2 ~current:view.assignment ~want:t.want
    ~len ~target

let stats t =
  ("cached", Color_set.cardinal t.cached)
  :: ("evictions", t.evictions)
  :: Color_state.stats t.state

module Json = Rrs_sim.Event_sink.Json

let serialize t =
  Printf.sprintf "{\"cached\":%s,\"evictions\":%d,%s}"
    (Json.ints (Color_set.to_list t.cached))
    t.evictions
    (Color_state.serialize_fields t.state)

let deserialize t blob =
  let fields = Json.parse_fields blob in
  Color_state.deserialize_fields t.state fields;
  t.evictions <- Json.int_field fields "evictions";
  Color_set.clear t.cached;
  Array.iter (Color_set.add t.cached) (Json.ints_field fields "cached")
