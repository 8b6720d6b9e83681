(** Algorithm Seq-EDF (Section 3.3): the EDF reference without
    replication — all [m] locations cache distinct colors, one copy each.
    DS-Seq-EDF is this policy run at engine speed 2 (two
    reconfiguration+execution mini-rounds per round).

    Unlike the online EDF of Section 3.1.2, this is an {e analysis
    reference}: the paper operates it on the eligible subsequence of the
    input, so it carries no eligibility gating of its own — every color
    is treated as eligible, and colors are ranked nonidle-first, then by
    deadline, bound, id. With gating, Corollary 3.1 (drops(DS-Seq-EDF_m)
    <= drops(Par-EDF_m)) would be false: a color with fewer than [Delta]
    jobs never wraps, so a gated reference would drop jobs Par-EDF
    executes. *)

module Job_pool = Rrs_sim.Job_pool
module Topk = Rrs_ds.Topk

type t = {
  state : Color_state.t; (* deadlines update at boundaries for all colors *)
  ranking : Ranking.t;
  cached : Color_set.t;
  in_cache : int -> bool;
  layout : Cache_layout.t;
  colors : int array; (* every color, ascending: the candidates *)
  keys : int array; (* rank key per color *)
  top : int array; (* the best-ranked colors *)
  want : int array; (* the cached set in placement order *)
  mutable evictions : int;
}

let name = "seq-edf"

let create ~n:_ ~delta ~bounds =
  let num_colors = Array.length bounds in
  let cached = Color_set.create ~num_colors in
  {
    state = Color_state.create ~delta ~bounds ();
    ranking = Ranking.create ~bounds;
    cached;
    in_cache = Color_set.mem cached;
    layout = Cache_layout.create ~num_colors;
    colors = Array.init num_colors Fun.id;
    keys = Array.make num_colors 0;
    top = Array.make num_colors 0;
    want = Array.make num_colors 0;
    evictions = 0;
  }

let on_drop t ~round ~dropped =
  Color_state.on_drop t.state ~round ~dropped ~in_cache:t.in_cache

let on_arrival t ~round ~request = Color_state.on_arrival t.state ~round ~request

let reconfigure t (view : Rrs_sim.Policy.view) ~target =
  let capacity = view.n in
  let pool = view.pool in
  let num_colors = Array.length t.colors in
  (* All colors are candidates: no eligibility gate. *)
  for color = 0 to num_colors - 1 do
    t.keys.(color) <- Ranking.edf_key t.ranking t.state pool color
  done;
  let top = Topk.select ~keys:t.keys ~k:capacity t.colors ~len:num_colors t.top in
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
  Cache_layout.place t.layout ~copies:1 ~current:view.assignment ~want:t.want
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
