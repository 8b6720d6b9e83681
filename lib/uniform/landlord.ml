module Job_pool = Rrs_sim.Job_pool
module Color_set = Rrs_core.Color_set

let policy ~drop_costs : (module Rrs_sim.Policy.POLICY) =
  (module struct
    type t = {
      delta : int;
      demand : int array; (* weighted backlog accumulated while uncached *)
      credit : float array; (* Landlord credit of cached colors *)
      cached : Color_set.t;
      layout : Rrs_core.Cache_layout.t;
      faulting : int array; (* scratch, per reconfigure *)
      want : int array; (* the cached set in placement order *)
      mutable faults : int;
      mutable evictions : int;
      mutable hits : int;
    }

    let name = "landlord"

    let create ~n:_ ~delta ~bounds =
      let num_colors = Array.length bounds in
      if Array.length drop_costs <> num_colors then
        invalid_arg "Landlord.policy: drop_costs length mismatch";
      {
        delta;
        demand = Array.make num_colors 0;
        credit = Array.make num_colors 0.0;
        cached = Color_set.create ~num_colors;
        layout = Rrs_core.Cache_layout.create ~num_colors;
        faulting = Array.make num_colors 0;
        want = Array.make num_colors 0;
        faults = 0;
        evictions = 0;
        hits = 0;
      }

    let on_drop _ ~round:_ ~dropped:_ = ()

    let rec on_arrival t ~round ~request =
      match request with
      | [] -> ()
      | (color, count) :: rest ->
          if count > 0 then
            if Color_set.mem t.cached color then begin
              (* Hit: refresh the landlord credit. *)
              t.credit.(color) <- float_of_int t.delta;
              t.hits <- t.hits + 1
            end
            else
              t.demand.(color) <-
                min (t.demand.(color) + (drop_costs.(color) * count))
                  (4 * t.delta);
          on_arrival t ~round ~request:rest

    let evict_for_room t =
      (* The Landlord step: charge everyone the minimum credit, evict the
         zeroed tenant with the lowest color id. *)
      let colors = Array.length t.credit in
      let min_credit = ref infinity in
      for color = 0 to colors - 1 do
        if Color_set.mem t.cached color then
          min_credit := Float.min !min_credit t.credit.(color)
      done;
      if Float.is_finite !min_credit then begin
        let victim = ref (-1) in
        for color = 0 to colors - 1 do
          if Color_set.mem t.cached color then begin
            t.credit.(color) <- t.credit.(color) -. !min_credit;
            if t.credit.(color) <= 1e-9 && !victim < 0 then victim := color
          end
        done;
        if !victim >= 0 then begin
          Color_set.remove t.cached !victim;
          t.evictions <- t.evictions + 1
        end
      end

    let reconfigure t (view : Rrs_sim.Policy.view) ~target =
      let capacity = view.n / 2 in
      (* Admit faulting colors: nonidle, uncached, demand >= delta.
         Process by descending demand (ties by color) so the hottest
         weighted backlog wins ties for room. *)
      let faulting = ref 0 in
      for color = 0 to Array.length t.demand - 1 do
        if
          Job_pool.nonidle view.pool color
          && (not (Color_set.mem t.cached color))
          && t.demand.(color) >= t.delta
        then begin
          let j = ref !faulting in
          while !j > 0 && t.demand.(t.faulting.(!j - 1)) < t.demand.(color) do
            t.faulting.(!j) <- t.faulting.(!j - 1);
            decr j
          done;
          t.faulting.(!j) <- color;
          incr faulting
        end
      done;
      for i = 0 to !faulting - 1 do
        let color = t.faulting.(i) in
        let guard = ref (2 * capacity) in
        while Color_set.cardinal t.cached >= capacity && !guard > 0 do
          evict_for_room t;
          decr guard
        done;
        if Color_set.cardinal t.cached < capacity then begin
          Color_set.add t.cached color;
          t.credit.(color) <- float_of_int t.delta;
          t.demand.(color) <- 0;
          t.faults <- t.faults + 1
        end
      done;
      let len = Color_set.fill_table_order t.cached t.want ~from:0 in
      Rrs_core.Cache_layout.place t.layout ~copies:2 ~current:view.assignment
        ~want:t.want ~len ~target

    let stats t =
      [
        ("cached", Color_set.cardinal t.cached);
        ("faults", t.faults);
        ("evictions", t.evictions);
        ("hits", t.hits);
      ]

    module Json = Rrs_sim.Event_sink.Json

    (* Credits are fractional, so they travel as a comma-joined list of
       hex floats ("%h") inside one JSON string — exact round-trip, no
       decimal rounding. *)
    let serialize t =
      let credits =
        Array.to_list t.credit
        |> List.map (Printf.sprintf "%h")
        |> String.concat ","
      in
      let cached = Color_set.to_list t.cached in
      Printf.sprintf
        "{\"demand\":%s,\"credit\":%s,\"cached\":%s,\"faults\":%d,\
         \"evictions\":%d,\"hits\":%d}"
        (Json.ints (Array.to_list t.demand))
        (Json.escape credits) (Json.ints cached) t.faults t.evictions t.hits

    let deserialize t blob =
      let fields = Json.parse_fields blob in
      let num_colors = Array.length t.demand in
      let demand = Json.ints_field fields "demand" in
      if Array.length demand <> num_colors then
        raise (Json.Parse_error "field \"demand\": length mismatch");
      let credits =
        match String.split_on_char ',' (Json.str_field fields "credit") with
        | [ "" ] -> [||]
        | parts ->
            Array.of_list
              (List.map
                 (fun part ->
                   match float_of_string_opt part with
                   | Some value -> value
                   | None ->
                       raise (Json.Parse_error "field \"credit\": bad float"))
                 parts)
      in
      if Array.length credits <> num_colors then
        raise (Json.Parse_error "field \"credit\": length mismatch");
      Array.blit demand 0 t.demand 0 num_colors;
      Array.blit credits 0 t.credit 0 num_colors;
      t.faults <- Json.int_field fields "faults";
      t.evictions <- Json.int_field fields "evictions";
      t.hits <- Json.int_field fields "hits";
      Color_set.clear t.cached;
      Array.iter (Color_set.add t.cached) (Json.ints_field fields "cached")
  end)
