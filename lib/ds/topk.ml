let select ~(keys : int array) ~k (src : int array) ~len (dst : int array) =
  let k = if k < len then k else len in
  let m = ref 0 in
  if k > 0 then
    for i = 0 to len - 1 do
      let x = src.(i) in
      let key = keys.(x) in
      if !m < k || key < keys.(dst.(k - 1)) then begin
        (* Shift the worse entries right (the last one falls off when
           the prefix is full) and drop [x] into the gap. *)
        let j = ref (if !m < k then !m else k - 1) in
        while !j > 0 && keys.(dst.(!j - 1)) > key do
          dst.(!j) <- dst.(!j - 1);
          decr j
        done;
        dst.(!j) <- x;
        if !m < k then incr m
      end
    done;
  !m
