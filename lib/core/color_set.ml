let initial_buckets = 16

type t = {
  member : bool array;
  hash : int array; (* Hashtbl.hash of each color *)
  stamp : int array; (* insertion clock of each member *)
  mutable cardinal : int;
  mutable buckets : int;
  mutable clock : int;
}

let create ~num_colors =
  {
    member = Array.make num_colors false;
    hash = Array.init num_colors Hashtbl.hash;
    stamp = Array.make num_colors 0;
    cardinal = 0;
    buckets = initial_buckets;
    clock = 0;
  }

let mem t color = t.member.(color)
let cardinal t = t.cardinal

let add t color =
  if not t.member.(color) then begin
    t.member.(color) <- true;
    t.stamp.(color) <- t.clock;
    t.clock <- t.clock + 1;
    t.cardinal <- t.cardinal + 1;
    if t.cardinal > 2 * t.buckets then t.buckets <- 2 * t.buckets
  end

let remove t color =
  if t.member.(color) then begin
    t.member.(color) <- false;
    t.cardinal <- t.cardinal - 1
  end

let clear t =
  Array.fill t.member 0 (Array.length t.member) false;
  t.cardinal <- 0;
  t.buckets <- initial_buckets

(* [a] is walked-to-list before [b]: higher bucket first, then older. *)
let before t a b =
  let bucket_a = t.hash.(a) land (t.buckets - 1)
  and bucket_b = t.hash.(b) land (t.buckets - 1) in
  bucket_a > bucket_b || (bucket_a = bucket_b && t.stamp.(a) < t.stamp.(b))

let fill_table_order t dst ~from =
  let stop = ref from in
  for color = 0 to Array.length t.member - 1 do
    if t.member.(color) then begin
      (* Insertion sort into dst.(from .. !stop - 1). *)
      let j = ref !stop in
      while !j > from && before t color dst.(!j - 1) do
        dst.(!j) <- dst.(!j - 1);
        decr j
      done;
      dst.(!j) <- color;
      incr stop
    end
  done;
  !stop

let to_list t =
  let acc = ref [] in
  for color = Array.length t.member - 1 downto 0 do
    if t.member.(color) then acc := color :: !acc
  done;
  !acc
