type t = { needed : int array (* copies still to place, per color *) }

let create ~num_colors = { needed = Array.make num_colors 0 }

let place t ~copies ~current ~want ~len ~target =
  if copies < 1 then invalid_arg "Cache_layout.place: copies must be >= 1";
  let n = Array.length target in
  if Array.length current <> n then
    invalid_arg "Cache_layout.place: current and target differ in length";
  if copies * len > n then
    invalid_arg
      (Printf.sprintf
         "Cache_layout.place: %d copies of %d colors exceed %d locations" copies
         len n);
  let needed = t.needed in
  for i = 0 to len - 1 do
    let color = want.(i) in
    if needed.(color) > 0 then begin
      for j = 0 to i - 1 do
        needed.(want.(j)) <- 0
      done;
      invalid_arg "Cache_layout.place: duplicate wanted color"
    end;
    needed.(color) <- copies
  done;
  (* Keep existing placements of wanted colors. *)
  for location = 0 to n - 1 do
    let color = current.(location) in
    if color >= 0 && needed.(color) > 0 then begin
      target.(location) <- color;
      needed.(color) <- needed.(color) - 1
    end
    else target.(location) <- -1
  done;
  (* Fill missing copies into the lowest free locations; the copy count
     guarantees there is room. *)
  let next_free = ref 0 in
  for i = 0 to len - 1 do
    let color = want.(i) in
    while needed.(color) > 0 do
      while target.(!next_free) >= 0 do
        incr next_free
      done;
      target.(!next_free) <- color;
      incr next_free;
      needed.(color) <- needed.(color) - 1
    done
  done
