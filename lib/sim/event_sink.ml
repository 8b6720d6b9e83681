type event =
  | Reconfig of { round : int; mini_round : int; location : int;
                  previous : Types.color option; next : Types.color }
  | Drop of { round : int; color : Types.color; count : int }
  | Execute of { round : int; mini_round : int; location : int;
                 color : Types.color; deadline : int }
  | Crash of { round : int; location : int }
  | Repair of { round : int; location : int }
  | Reconfig_failed of { round : int; mini_round : int; location : int;
                         previous : Types.color option;
                         attempted : Types.color }

type t =
  | Null
  | Memory of event list ref
  | Jsonl of out_channel

let memory () = Memory (ref [])

let schema_version = "rrs-events/2"
let supported_schemas = [ "rrs-events/1"; schema_version ]

(* ---- writing ---- *)

let escape_into buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

let escape s =
  let buffer = Buffer.create (String.length s + 2) in
  escape_into buffer s;
  Buffer.contents buffer

let color_opt = function None -> "null" | Some c -> string_of_int c

let event_line event =
  match event with
  | Reconfig { round; mini_round; location; previous; next } ->
      Printf.sprintf
        "{\"type\":\"reconfig\",\"round\":%d,\"mini\":%d,\"location\":%d,\
         \"previous\":%s,\"next\":%d}"
        round mini_round location (color_opt previous) next
  | Drop { round; color; count } ->
      Printf.sprintf "{\"type\":\"drop\",\"round\":%d,\"color\":%d,\"count\":%d}"
        round color count
  | Execute { round; mini_round; location; color; deadline } ->
      Printf.sprintf
        "{\"type\":\"execute\",\"round\":%d,\"mini\":%d,\"location\":%d,\
         \"color\":%d,\"deadline\":%d}"
        round mini_round location color deadline
  | Crash { round; location } ->
      Printf.sprintf "{\"type\":\"crash\",\"round\":%d,\"location\":%d}" round
        location
  | Repair { round; location } ->
      Printf.sprintf "{\"type\":\"repair\",\"round\":%d,\"location\":%d}" round
        location
  | Reconfig_failed { round; mini_round; location; previous; attempted } ->
      Printf.sprintf
        "{\"type\":\"reconfig_failed\",\"round\":%d,\"mini\":%d,\
         \"location\":%d,\"previous\":%s,\"attempted\":%d}"
        round mini_round location (color_opt previous) attempted

let write_line channel line =
  output_string channel line;
  output_char channel '\n'

let record t event =
  match t with
  | Null -> ()
  | Memory events -> events := event :: !events
  | Jsonl channel -> write_line channel (event_line event)

let retained = function
  | Null | Jsonl _ -> 0
  | Memory events -> List.length !events

let events = function
  | Null | Jsonl _ -> []
  | Memory events -> List.rev !events

let write_header t ~name ~delta ~n ~speed ~horizon ~bounds =
  match t with
  | Null | Memory _ -> ()
  | Jsonl channel ->
      let buffer = Buffer.create 128 in
      Buffer.add_string buffer "{\"schema\":";
      escape_into buffer schema_version;
      Buffer.add_string buffer ",\"name\":";
      escape_into buffer name;
      Buffer.add_string buffer
        (Printf.sprintf ",\"delta\":%d,\"n\":%d,\"speed\":%d,\"horizon\":%d,\
                         \"colors\":%d,\"bounds\":["
           delta n speed horizon (Array.length bounds));
      Array.iteri
        (fun i bound ->
          if i > 0 then Buffer.add_char buffer ',';
          Buffer.add_string buffer (string_of_int bound))
        bounds;
      Buffer.add_string buffer "]}";
      write_line channel (Buffer.contents buffer)

let write_round t ~round ~pending ~reconfigs ~drops ~execs =
  match t with
  | Null | Memory _ -> ()
  | Jsonl channel ->
      write_line channel
        (Printf.sprintf
           "{\"type\":\"round\",\"round\":%d,\"pending\":%d,\"reconfigs\":%d,\
            \"drops\":%d,\"execs\":%d}"
           round pending reconfigs drops execs)

let write_summary t ~delta ~reconfigs ~failed ~drops ~execs =
  match t with
  | Null | Memory _ -> ()
  | Jsonl channel ->
      write_line channel
        (Printf.sprintf
           "{\"type\":\"summary\",\"cost\":%d,\"reconfig_count\":%d,\
            \"reconfig_cost\":%d,\"failed_reconfig_count\":%d,\
            \"drop_count\":%d,\"exec_count\":%d}"
           ((delta * reconfigs) + drops)
           reconfigs (delta * reconfigs) failed drops execs)

let write_restored t ~round ~reconfigs ~failed ~drops ~execs =
  match t with
  | Null | Memory _ -> ()
  | Jsonl channel ->
      write_line channel
        (Printf.sprintf
           "{\"type\":\"restored\",\"round\":%d,\"reconfigs\":%d,\
            \"failed\":%d,\"drops\":%d,\"execs\":%d}"
           round reconfigs failed drops execs)

let write_aborted t ~round ~reason =
  match t with
  | Null | Memory _ -> ()
  | Jsonl channel ->
      write_line channel
        (Printf.sprintf "{\"type\":\"aborted\",\"round\":%d,\"reason\":%s}"
           round (escape reason))

let flush = function Null | Memory _ -> () | Jsonl channel -> Stdlib.flush channel

(* ---- reading ---- *)

(* Scanner for the flat objects this module (and [Fault]) writes: string
   keys; int, string, null or int-array values. *)
module Json = struct
  type value = Vint of int | Vstr of string | Vnull | Vints of int array

  exception Parse_error of string

  let escape = escape

  let ints values =
    let buffer = Buffer.create 64 in
    Buffer.add_char buffer '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buffer ',';
        Buffer.add_string buffer (string_of_int v))
      values;
    Buffer.add_char buffer ']';
    Buffer.contents buffer

  let parse_fields text =
    let len = String.length text in
    let pos = ref 0 in
    let fail message = raise (Parse_error message) in
    let peek () = if !pos < len then text.[!pos] else '\000' in
    let skip_ws () =
      while
        !pos < len && (match text.[!pos] with ' ' | '\t' -> true | _ -> false)
      do incr pos done
    in
    let expect c =
      skip_ws ();
      if peek () <> c then
        fail (Printf.sprintf "expected %C at offset %d" c !pos);
      incr pos
    in
    let parse_string () =
      expect '"';
      let buffer = Buffer.create 16 in
      let rec go () =
        if !pos >= len then fail "unterminated string"
        else
          match text.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              if !pos + 1 >= len then fail "dangling escape";
              (match text.[!pos + 1] with
              | '"' -> Buffer.add_char buffer '"'
              | '\\' -> Buffer.add_char buffer '\\'
              | 'n' -> Buffer.add_char buffer '\n'
              | 'r' -> Buffer.add_char buffer '\r'
              | 't' -> Buffer.add_char buffer '\t'
              | 'u' ->
                  if !pos + 5 >= len then fail "short \\u escape";
                  let code =
                    try int_of_string ("0x" ^ String.sub text (!pos + 2) 4)
                    with _ -> fail "bad \\u escape"
                  in
                  if code > 0xff then fail "non-latin \\u escape"
                  else Buffer.add_char buffer (Char.chr code);
                  pos := !pos + 4
              | c -> fail (Printf.sprintf "bad escape \\%c" c));
              pos := !pos + 2;
              go ()
          | c ->
              Buffer.add_char buffer c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents buffer
    in
    let parse_int () =
      skip_ws ();
      let start = !pos in
      if peek () = '-' then incr pos;
      while
        !pos < len && (match text.[!pos] with '0' .. '9' -> true | _ -> false)
      do incr pos done;
      if !pos = start then
        fail (Printf.sprintf "expected integer at offset %d" start);
      match int_of_string_opt (String.sub text start (!pos - start)) with
      | Some value -> value
      | None -> fail "bad integer"
    in
    let parse_value () =
      skip_ws ();
      match peek () with
      | '"' -> Vstr (parse_string ())
      | 'n' ->
          if !pos + 4 <= len && String.sub text !pos 4 = "null" then begin
            pos := !pos + 4;
            Vnull
          end
          else fail "bad literal"
      | '[' ->
          incr pos;
          skip_ws ();
          if peek () = ']' then begin incr pos; Vints [||] end
          else begin
            let items = ref [ parse_int () ] in
            skip_ws ();
            while peek () = ',' do
              incr pos;
              items := parse_int () :: !items;
              skip_ws ()
            done;
            expect ']';
            Vints (Array.of_list (List.rev !items))
          end
      | _ -> Vint (parse_int ())
    in
    expect '{';
    skip_ws ();
    let fields = ref [] in
    if peek () = '}' then incr pos
    else begin
      let parse_field () =
        let key = (skip_ws (); parse_string ()) in
        expect ':';
        let value = parse_value () in
        fields := (key, value) :: !fields
      in
      parse_field ();
      skip_ws ();
      while peek () = ',' do
        incr pos;
        parse_field ();
        skip_ws ()
      done;
      expect '}'
    end;
    skip_ws ();
    if !pos <> len then fail "trailing content after object";
    List.rev !fields

  let field fields key =
    match List.assoc_opt key fields with
    | Some value -> value
    | None -> raise (Parse_error (Printf.sprintf "missing field %S" key))

  let int_field fields key =
    match field fields key with
    | Vint value -> value
    | _ -> raise (Parse_error (Printf.sprintf "field %S: expected int" key))

  let opt_int_field fields key ~default =
    match List.assoc_opt key fields with
    | None -> default
    | Some (Vint value) -> value
    | Some _ ->
        raise (Parse_error (Printf.sprintf "field %S: expected int" key))

  let str_field fields key =
    match field fields key with
    | Vstr value -> value
    | _ -> raise (Parse_error (Printf.sprintf "field %S: expected string" key))

  let ints_field fields key =
    match field fields key with
    | Vints value -> value
    | _ ->
        raise (Parse_error (Printf.sprintf "field %S: expected int array" key))

  let color_opt_field fields key =
    match field fields key with
    | Vnull -> None
    | Vint c -> Some c
    | _ ->
        raise
          (Parse_error (Printf.sprintf "field %S: expected int or null" key))
end

type header = {
  hdr_name : string;
  hdr_delta : int;
  hdr_n : int;
  hdr_speed : int;
  hdr_horizon : int;
  hdr_bounds : int array;
}

type round_snapshot = {
  snap_round : int;
  snap_pending : int;
  snap_reconfigs : int;
  snap_drops : int;
  snap_execs : int;
}

type summary = {
  sum_cost : int;
  sum_reconfig_count : int;
  sum_reconfig_cost : int;
  sum_failed_reconfig_count : int; (* 0 in rrs-events/1 files *)
  sum_drop_count : int;
  sum_exec_count : int;
}

type line =
  | Header of header
  | Event of event
  | Round of round_snapshot
  | Summary of summary
  | Restored of { res_round : int; res_reconfigs : int; res_failed : int;
                  res_drops : int; res_execs : int }
  | Aborted of { ab_round : int; ab_reason : string }

let parse_line text =
  let open Json in
  match parse_fields text with
  | exception Parse_error message -> Error message
  | fields -> (
      try
        if List.mem_assoc "schema" fields then begin
          let schema = str_field fields "schema" in
          if not (List.mem schema supported_schemas) then
            Error
              (Printf.sprintf "unsupported schema %S (want one of: %s)" schema
                 (String.concat ", " supported_schemas))
          else
            Ok
              (Header
                 {
                   hdr_name = str_field fields "name";
                   hdr_delta = int_field fields "delta";
                   hdr_n = int_field fields "n";
                   hdr_speed = int_field fields "speed";
                   hdr_horizon = int_field fields "horizon";
                   hdr_bounds = ints_field fields "bounds";
                 })
        end
        else
          match str_field fields "type" with
          | "reconfig" ->
              Ok
                (Event
                   (Reconfig
                      {
                        round = int_field fields "round";
                        mini_round = int_field fields "mini";
                        location = int_field fields "location";
                        previous = color_opt_field fields "previous";
                        next = int_field fields "next";
                      }))
          | "drop" ->
              Ok
                (Event
                   (Drop
                      {
                        round = int_field fields "round";
                        color = int_field fields "color";
                        count = int_field fields "count";
                      }))
          | "execute" ->
              Ok
                (Event
                   (Execute
                      {
                        round = int_field fields "round";
                        mini_round = int_field fields "mini";
                        location = int_field fields "location";
                        color = int_field fields "color";
                        deadline = int_field fields "deadline";
                      }))
          | "crash" ->
              Ok
                (Event
                   (Crash
                      {
                        round = int_field fields "round";
                        location = int_field fields "location";
                      }))
          | "repair" ->
              Ok
                (Event
                   (Repair
                      {
                        round = int_field fields "round";
                        location = int_field fields "location";
                      }))
          | "reconfig_failed" ->
              Ok
                (Event
                   (Reconfig_failed
                      {
                        round = int_field fields "round";
                        mini_round = int_field fields "mini";
                        location = int_field fields "location";
                        previous = color_opt_field fields "previous";
                        attempted = int_field fields "attempted";
                      }))
          | "round" ->
              Ok
                (Round
                   {
                     snap_round = int_field fields "round";
                     snap_pending = int_field fields "pending";
                     snap_reconfigs = int_field fields "reconfigs";
                     snap_drops = int_field fields "drops";
                     snap_execs = int_field fields "execs";
                   })
          | "summary" ->
              Ok
                (Summary
                   {
                     sum_cost = int_field fields "cost";
                     sum_reconfig_count = int_field fields "reconfig_count";
                     sum_reconfig_cost = int_field fields "reconfig_cost";
                     sum_failed_reconfig_count =
                       opt_int_field fields "failed_reconfig_count" ~default:0;
                     sum_drop_count = int_field fields "drop_count";
                     sum_exec_count = int_field fields "exec_count";
                   })
          | "restored" ->
              Ok
                (Restored
                   {
                     res_round = int_field fields "round";
                     res_reconfigs = int_field fields "reconfigs";
                     res_failed = int_field fields "failed";
                     res_drops = int_field fields "drops";
                     res_execs = int_field fields "execs";
                   })
          | "aborted" ->
              Ok
                (Aborted
                   {
                     ab_round = int_field fields "round";
                     ab_reason = str_field fields "reason";
                   })
          | other -> Error (Printf.sprintf "unknown line type %S" other)
      with Parse_error message -> Error message)
