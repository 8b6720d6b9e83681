module Job_pool = Rrs_sim.Job_pool
module Topk = Rrs_ds.Topk

module Make (Config : sig
  val name : string
  val lru_share : float
end) : Rrs_sim.Policy.POLICY = struct
  type t = {
    lru_slots : int; (* distinct colors in the LRU set *)
    edf_slots : int; (* distinct colors in the EDF set *)
    state : Color_state.t;
    ranking : Ranking.t;
    se : Instrument.tracker; (* super-epochs, fed incrementally *)
    lru_half : Color_set.t;
    edf_half : Color_set.t;
    in_cache : int -> bool;
    layout : Cache_layout.t;
    eligible : int array; (* scratch, per reconfigure *)
    non_lru : int array; (* eligible colors outside the LRU set *)
    keys : int array; (* rank key per color *)
    top : int array; (* the best-ranked non-LRU colors *)
    want : int array; (* LRU set best first, then the EDF set *)
    mutable evictions : int;
    mutable lru_promotions : int;
  }

  let name = Config.name

  let create ~n ~delta ~bounds =
    if Config.lru_share < 0.0 || Config.lru_share > 1.0 then
      invalid_arg "Lru_edf_core: lru_share out of [0, 1]";
    let distinct = n / 2 in
    let lru_slots =
      int_of_float (Float.round (Config.lru_share *. float_of_int distinct))
    in
    let num_colors = Array.length bounds in
    (* Super-epochs (Section 3.4) with the Theorem 1 watermark 2m = n/4
       (at least 1 so the count is defined for tiny n), maintained
       incrementally so no per-round event log accumulates. *)
    let se = Instrument.tracker ~watermark:(max 1 (n / 4)) in
    let lru_half = Color_set.create ~num_colors
    and edf_half = Color_set.create ~num_colors in
    {
      lru_slots;
      edf_slots = distinct - lru_slots;
      state =
        Color_state.create
          ~on_timestamp:(fun ~round:_ ~color -> Instrument.track se ~color)
          ~delta ~bounds ();
      ranking = Ranking.create ~bounds;
      se;
      lru_half;
      edf_half;
      in_cache =
        (fun color -> Color_set.mem lru_half color || Color_set.mem edf_half color);
      layout = Cache_layout.create ~num_colors;
      eligible = Array.make num_colors 0;
      non_lru = Array.make num_colors 0;
      keys = Array.make num_colors 0;
      top = Array.make num_colors 0;
      want = Array.make num_colors 0;
      evictions = 0;
      lru_promotions = 0;
    }

  let on_drop t ~round ~dropped =
    Color_state.on_drop t.state ~round ~dropped ~in_cache:t.in_cache

  let on_arrival t ~round ~request = Color_state.on_arrival t.state ~round ~request

  let reconfigure t (view : Rrs_sim.Policy.view) ~target =
    let pool = view.pool in
    let eligible = Color_state.fill_eligible t.state t.eligible in
    (* LRU set: the most recently stamped eligible colors. *)
    for i = 0 to eligible - 1 do
      let color = t.eligible.(i) in
      t.keys.(color) <- Ranking.lru_key t.ranking t.state ~round:view.round color
    done;
    let lru =
      Topk.select ~keys:t.keys ~k:t.lru_slots t.eligible ~len:eligible t.want
    in
    Color_set.clear t.lru_half;
    for i = 0 to lru - 1 do
      let color = t.want.(i) in
      Color_set.add t.lru_half color;
      if Color_set.mem t.edf_half color then begin
        Color_set.remove t.edf_half color;
        t.lru_promotions <- t.lru_promotions + 1
      end
    done;
    (* EDF set: sticky admission of the best-ranked nonidle non-LRU
       colors, evicting the worst-ranked member when full. *)
    let non_lru = ref 0 in
    for i = 0 to eligible - 1 do
      let color = t.eligible.(i) in
      if not (Color_set.mem t.lru_half color) then begin
        t.keys.(color) <- Ranking.edf_key t.ranking t.state pool color;
        t.non_lru.(!non_lru) <- color;
        incr non_lru
      end
    done;
    let top = Topk.select ~keys:t.keys ~k:t.edf_slots t.non_lru ~len:!non_lru t.top in
    for i = 0 to top - 1 do
      let color = t.top.(i) in
      if Job_pool.nonidle pool color && not (t.in_cache color) then begin
        Color_set.add t.edf_half color;
        if Color_set.cardinal t.edf_half > t.edf_slots then begin
          Color_set.remove t.edf_half
            (Ranking.worst_edf t.ranking t.state pool t.edf_half);
          t.evictions <- t.evictions + 1
        end
      end
    done;
    let len = Color_set.fill_table_order t.edf_half t.want ~from:lru in
    Cache_layout.place t.layout ~copies:2 ~current:view.assignment ~want:t.want
      ~len ~target

  let stats t =
    ("cached", Color_set.cardinal t.lru_half + Color_set.cardinal t.edf_half)
    :: ("edf_evictions", t.evictions)
    :: ("lru_promotions", t.lru_promotions)
    :: ("super_epochs", Instrument.tracker_count t.se)
    :: Color_state.stats t.state

  module Json = Rrs_sim.Event_sink.Json

  let serialize t =
    Printf.sprintf
      "{\"lru\":%s,\"edf\":%s,\"evictions\":%d,\"promotions\":%d,\
       \"se_complete\":%d,\"se_seen\":%s,%s}"
      (Json.ints (Color_set.to_list t.lru_half))
      (Json.ints (Color_set.to_list t.edf_half))
      t.evictions t.lru_promotions
      (Instrument.tracker_complete t.se)
      (Json.ints (Instrument.tracker_seen t.se))
      (Color_state.serialize_fields t.state)

  let deserialize t blob =
    let fields = Json.parse_fields blob in
    Color_state.deserialize_fields t.state fields;
    t.evictions <- Json.int_field fields "evictions";
    t.lru_promotions <- Json.int_field fields "promotions";
    Instrument.tracker_restore t.se
      ~complete:(Json.int_field fields "se_complete")
      ~seen:(Array.to_list (Json.ints_field fields "se_seen"));
    Color_set.clear t.lru_half;
    Color_set.clear t.edf_half;
    Array.iter (Color_set.add t.lru_half) (Json.ints_field fields "lru");
    Array.iter (Color_set.add t.edf_half) (Json.ints_field fields "edf")
end

let with_share share : (module Rrs_sim.Policy.POLICY) =
  (module Make (struct
    let name = Printf.sprintf "dlru-edf@%.2f" share
    let lru_share = share
  end))
