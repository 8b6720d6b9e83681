type color = int
type request = (color * int) list

type job = {
  color : color;
  arrival : int;
  deadline : int;
}

type phase = Drop | Arrival | Reconfiguration | Execution

let phase_to_string = function
  | Drop -> "drop"
  | Arrival -> "arrival"
  | Reconfiguration -> "reconfiguration"
  | Execution -> "execution"

let rec is_normalized prev = function
  | [] -> true
  | (color, count) :: rest ->
      count > 0 && color > prev && is_normalized color rest

(* A normalized request comes back as is. Otherwise the pairs are
   sorted by descending color, so that folding them onto an empty list
   merges equal colors and leaves the result ascending, with no final
   reversal. *)
let normalize_request request =
  if is_normalized min_int request then request
  else
    List.stable_sort (fun (a, _) (b, _) -> Int.compare b a) request
    |> List.fold_left
         (fun acc ((color, count) as pair) ->
           if count < 0 then invalid_arg "Types.normalize_request: negative count";
           match acc with
           | (c, k) :: rest when c = color -> (c, k + count) :: rest
           | _ -> if count = 0 then acc else pair :: acc)
         []

let request_size request =
  List.fold_left (fun acc (_, count) -> acc + count) 0 request

let pp_request ppf request =
  let pp_pair ppf (color, count) = Format.fprintf ppf "%d:%d" color count in
  Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") pp_pair) request
