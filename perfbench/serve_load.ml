(* serve-session and serve-routed: closed-loop sessions over real
   sockets against out-of-process servers.

   One thread drives two connections, one session each, at the E18
   configuration (dlru-edf, bounds 2..24, n = 8, delta = 4). Connection
   0 speaks rrs-wire/1 (JSON), connection 1 rrs-wire/2 (binary). Rounds
   alternate between the two; a round is feed + step, and every 16th
   round of a connection also reads [stats]. One request is in flight at
   a time, and the step reply carries the round's outcome before the
   next round is fed.

   [Direct] runs one [rrs serve --domains 1]. [Routed] runs [rrs route]
   in front of two [rrs serve] shards with [--snap-dir --autosnap] at
   [checkpoint_every] (the shard-set production shape), every process
   with one worker domain; session names are chosen with
   [Router.Ring.shard] so that each shard holds one session. *)

module Wire = Rrs_server.Wire
module Client = Rrs_server.Client
module Json = Rrs_sim.Event_sink.Json

let policy = "dlru-edf"
let bounds = [| 2; 3; 4; 6; 8; 12; 16; 24 |]
let colors = Array.length bounds
let delta = 4
let n = 8
let checkpoint_every = 32
let stats_every = 16

(* One round's arrivals, the E18 pattern: [n] jobs over random colors,
   as (color, count) pairs in color order, counts positive. *)
let request rng =
  let counts = Array.make colors 0 in
  for _ = 1 to n do
    let color = Random.State.int rng colors in
    counts.(color) <- counts.(color) + 1
  done;
  List.filter (fun (_, k) -> k > 0) (List.mapi (fun color k -> (color, k)) (Array.to_list counts))

(* Server memory is read once the two sessions have served this many
   rounds together: a sessions' resident state that grows with rounds
   served then shows as growth at a fixed amount of work, not as noise
   from how many rounds a run happened to fit in. *)
let rss_rounds = 16000

type shape = Direct | Routed

let shape_name = function Direct -> "serve-session" | Routed -> "serve-routed"

type shard = { shard : Procs.child; shard_sock : string; snap_dir : string }

type deployment = {
  servers : Procs.child list;  (** every server-side process *)
  router : Procs.child option;
  shards : shard list;  (** the session servers (one for [Direct]) *)
  conns : Client.t array;
  sessions : string array;
  dir : string;
}

let address path = Rrs_server.Server.Unix_socket path

let serve_argv rrs ~sock ~snap_dir =
  Array.append
    [| rrs; "serve"; "--socket"; sock; "--domains"; "1"; "--log-level"; "warn" |]
    (match snap_dir with
    | None -> [||]
    | Some dir ->
        [| "--snap-dir"; dir; "--autosnap"; "--checkpoint-every";
           string_of_int checkpoint_every |])

(* Poll until [sock] accepts a connection; the child must stay up. *)
let wait_ready child sock =
  let deadline = Util.now_s () +. 20. in
  let rec go () =
    match Client.try_connect ~timeout_ms:200 (address sock) with
    | Ok probe -> Client.close probe
    | Error message ->
        if not (Procs.alive child) then Util.fail "%s exited before listening" child.Procs.label;
        if Util.now_s () > deadline then Util.fail "%s never listened: %s" child.Procs.label message;
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

(* Two session names, the first owned by the first shard's label and the
   second by the second's. *)
let session_names shape shard_socks =
  match shape with
  | Direct -> [| "bench0"; "bench1" |]
  | Routed ->
      let ring = Rrs_server.Router.Ring.make (Array.of_list shard_socks) in
      let rec owned_by index k =
        let name = Printf.sprintf "bench%d" k in
        if Rrs_server.Router.Ring.index ring name = index then name
        else owned_by index (k + 1)
      in
      [| owned_by 0 0; owned_by 1 0 |]

let expect what reply =
  match reply with
  | Ok frame -> frame
  | Error message -> Util.fail "%s: %s" what message

let open_session conn session =
  match
    expect "open"
      (Client.call conn
         (Wire.Open
            { session; policy; delta; bounds; n; speed = 1; horizon = 0;
              queue_limit = 0; decl = None }))
  with
  | Wire.Opened _ -> ()
  | Wire.Error_frame { message } -> Util.fail "open %s: %s" session message
  | _ -> Util.fail "open %s: unexpected reply" session

(* Spawn, wait for every listener, connect, negotiate and open both
   sessions. The clock runs from the first spawn to the last [opened]. *)
let deploy ~rrs ~shape ~label =
  let t0 = Util.now_s () in
  let dir = Procs.scratch_dir label in
  let shards =
    match shape with
    | Direct ->
        let sock = Filename.concat dir "srv.sock" in
        [ { shard = Procs.spawn ~label:"rrs serve" (serve_argv rrs ~sock ~snap_dir:None);
            shard_sock = sock; snap_dir = "" } ]
    | Routed ->
        List.map
          (fun i ->
            let sock = Filename.concat dir (Printf.sprintf "s%d.sock" i) in
            let snaps = Filename.concat dir (Printf.sprintf "snap%d" i) in
            Unix.mkdir snaps 0o700;
            { shard =
                Procs.spawn ~label:(Printf.sprintf "rrs serve (shard %d)" i)
                  (serve_argv rrs ~sock ~snap_dir:(Some snaps));
              shard_sock = sock; snap_dir = snaps })
          [ 0; 1 ]
  in
  let shard_socks = List.map (fun s -> s.shard_sock) shards in
  let router, front =
    match shape with
    | Direct -> (None, List.hd shard_socks)
    | Routed ->
        let sock = Filename.concat dir "router.sock" in
        let argv =
          Array.concat
            [ [| rrs; "route"; "--socket"; sock; "--domains"; "1"; "--log-level"; "warn" |];
              Array.concat (List.map (fun s -> [| "--shard"; s |]) shard_socks) ]
        in
        (Some (Procs.spawn ~label:"rrs route" argv), sock)
  in
  List.iter (fun s -> wait_ready s.shard s.shard_sock) shards;
  Option.iter (fun r -> wait_ready r front) router;
  let conns =
    Array.map
      (fun wire ->
        let conn = Client.connect (address front) in
        (match Client.negotiate conn ~wire with
        | Ok () -> ()
        | Error message -> Util.fail "negotiate /%d: %s" wire message);
        conn)
      [| 1; 2 |]
  in
  let sessions = session_names shape shard_socks in
  Array.iteri (fun i conn -> open_session conn sessions.(i)) conns;
  let deployment =
    { servers = List.map (fun s -> s.shard) shards @ Option.to_list router;
      router; shards; conns; sessions; dir }
  in
  (deployment, Util.now_s () -. t0)

let tear_down d =
  Array.iter Client.close d.conns;
  List.iter Procs.kill d.servers;
  Procs.remove_dir d.dir

(* ---- the measured loop ---- *)

type window = {
  traced : bool;
  rounds : int;
  wall_s : float;
  shard_delta : Procs.counters;  (** session servers *)
  router_delta : Procs.counters;  (** the router, zero for [Direct] *)
  client_cpu_s : float;
  lat_from : int;  (** this window's slice of the latency samples *)
  lat_until : int;
}

type outcome = {
  setup_s : float list;
  windows : window list;
  latencies : Util.Samples.t;  (** one feed+step round, ns *)
  calls : (string * Util.Samples.t) list;  (** per frame type, untraced, ns *)
  failures : string list;
  attempted : int;
  peak_rss_kb : int;  (** sum of VmHWM over the server-side processes at [rss_rounds] *)
  end_rss_kb : int;  (** the same sum when the run ends *)
  total_rounds : int;
  shard_metrics : (string * Json.value) list list;  (** in-band [metrics], per shard *)
  bytes_per_frame : float array;  (** per connection: index 0 = /1, 1 = /2 *)
  requests : Wire.frame list;  (** a sample of the frames sent ... *)
  replies : Wire.frame list;  (** ... and received *)
}

let conserved = function
  | Wire.Stats_ok { fed; accepted; shed; execs; drops; pending; buffered; _ } ->
      fed = accepted + shed && accepted = execs + drops + pending + buffered
  | _ -> false

let fetch_metrics sock =
  let conn = Client.connect (address sock) in
  Fun.protect ~finally:(fun () -> Client.close conn) (fun () ->
      match expect "metrics" (Client.call conn (Wire.Metrics { slow = 0 })) with
      | Wire.Metrics_ok { doc; _ } -> Json.parse_fields doc
      | _ -> Util.fail "metrics: unexpected reply")

(* A restored autosnap must come back at the last checkpoint boundary at
   or before the session's final round. *)
let check_autosnaps d final_rounds =
  List.concat
    (List.mapi
       (fun i s ->
         let session = d.sessions.(i) in
         let path = Filename.concat s.snap_dir (session ^ ".sess.jsonl") in
         match Rrs_server.Session.load ~path () with
         | exception Sys_error message -> [ Printf.sprintf "%s: autosnap: %s" session message ]
         | Error message -> [ Printf.sprintf "%s: autosnap does not restore: %s" session message ]
         | Ok restored ->
             let round = (Rrs_server.Session.stats restored).Rrs_server.Session.st_round in
             Rrs_server.Session.release restored;
             let final = final_rounds.(i) in
             if final - round < 0 || final - round >= checkpoint_every then
               [ Printf.sprintf "%s: autosnap at round %d, session at %d" session round final ]
             else [])
       d.shards)

let server_delta w = Procs.add w.shard_delta w.router_delta

(* [setups] set-ups, the first half before the measured windows (the
   last of them is measured) and the rest after, so that the median
   spans the run rather than one moment of the host. *)
let run ~rrs ~shape ~seed ~seconds ~setups ~window_s ~trace =
  let setup_s = ref [] in
  let set_up k =
    let dep, s = deploy ~rrs ~shape ~label:(Printf.sprintf "%s-%d" (shape_name shape) k) in
    setup_s := s :: !setup_s;
    dep
  in
  let before = (setups + 1) / 2 in
  for k = 1 to before - 1 do
    tear_down (set_up k)
  done;
  let d = set_up before in
  let failures = ref [] and attempted = ref (setups * 2) in
  let failure fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let latencies = Util.Samples.create () in
  let calls = List.map (fun k -> (k, Util.Samples.create ())) [ "feed"; "step"; "stats" ] in
  let requests = ref [] and replies = ref [] and sampled = ref 0 in
  let rngs = Array.init 2 (fun i -> Random.State.make [| seed; i |]) in
  let rounds_done = Array.make 2 0 in
  let bytes0 = Array.map (fun c -> Client.bytes_sent c + Client.bytes_received c) d.conns in
  let frames = Array.make 2 0 in
  let call ~timed ~parent conn kind frame =
    incr attempted;
    let span = Spans.enter ~parent ("client.call." ^ kind) in
    let t0 = Util.now_ns () in
    let reply = Client.call conn frame in
    let dt = Util.now_ns () - t0 in
    Spans.leave span;
    if timed then Util.Samples.add (List.assoc kind calls) dt;
    match reply with
    | Ok (Wire.Error_frame { message }) ->
        failure "%s: error frame: %s" kind message;
        None
    | Ok r ->
        if !sampled < 256 then begin
          requests := frame :: !requests;
          replies := r :: !replies;
          incr sampled
        end;
        Some r
    | Error message -> Util.fail "%s: %s" kind message
  in
  let one_round ~timed i =
    let c = i land 1 in
    let conn = d.conns.(c) and session = d.sessions.(c) in
    let req = request rngs.(c) in
    let feed =
      Wire.Feed
        { session; colors = Array.of_list (List.map fst req);
          counts = Array.of_list (List.map snd req); decl = None }
    in
    let round = Spans.enter "round" in
    let t0 = Util.now_ns () in
    (match call ~timed ~parent:round conn "feed" feed with
    | Some (Wire.Fed _ | Wire.Shed _) | None -> ()
    | Some _ -> failure "feed: unexpected reply");
    (match call ~timed ~parent:round conn "step" (Wire.Step { session; rounds = 1 }) with
    | Some (Wire.Stepped { round; _ }) ->
        if round <> rounds_done.(c) + 1 then
          failure "%s: step reply names round %d, expected %d" session round (rounds_done.(c) + 1)
    | None -> ()
    | Some _ -> failure "step: unexpected reply");
    Util.Samples.add latencies (Util.now_ns () - t0);
    Spans.leave round;
    rounds_done.(c) <- rounds_done.(c) + 1;
    frames.(c) <- frames.(c) + 4;
    if rounds_done.(c) mod stats_every = 0 then begin
      frames.(c) <- frames.(c) + 2;
      match call ~timed ~parent:Spans.no_span conn "stats" (Wire.Stats { session }) with
      | Some r when conserved r -> ()
      | Some _ -> failure "%s: stats reply violates conservation" session
      | None -> ()
    end
  in
  let shard_pids = List.map (fun s -> s.shard.Procs.pid) d.shards in
  let router_pids = List.map (fun r -> r.Procs.pid) (Option.to_list d.router) in
  let server_rss_kb () = List.fold_left (fun acc pid -> acc + Procs.vmhwm_kb pid) 0 (shard_pids @ router_pids) in
  let total_rounds () = rounds_done.(0) + rounds_done.(1) in
  let peak_rss_kb = ref 0 in
  let one_round ~timed =
    one_round ~timed (total_rounds ());
    if total_rounds () = rss_rounds then peak_rss_kb := server_rss_kb ()
  in
  let tracer = !Spans.current in
  let deadline = Util.now_s () +. seconds in
  let rec windows k acc =
    if Util.now_s () >= deadline then List.rev acc
    else begin
      let traced = trace k in
      Spans.current := if traced then tracer else None;
      let lat_from = Util.Samples.length latencies in
      let shard0 = Procs.sum_counters shard_pids and router0 = Procs.sum_counters router_pids in
      let cpu0 = Util.self_cpu_s () and t0 = Util.now_s () in
      (* The last window absorbs a remainder shorter than half a window,
         and every window serves at least one round. *)
      let stop = if deadline -. t0 < 1.5 *. window_s then deadline else t0 +. window_s in
      let rounds = ref 0 in
      while !rounds = 0 || Util.now_s () < stop do
        one_round ~timed:(not traced);
        incr rounds
      done;
      let wall_s = Util.now_s () -. t0 and client_cpu_s = Util.self_cpu_s () -. cpu0 in
      let w =
        { traced; rounds = !rounds; wall_s;
          shard_delta = Procs.sub (Procs.sum_counters shard_pids) shard0;
          router_delta = Procs.sub (Procs.sum_counters router_pids) router0;
          client_cpu_s; lat_from; lat_until = Util.Samples.length latencies }
      in
      (* Progress on stderr: host slowdowns show here as runs of slow
         windows while the per-round counts stay put. *)
      Printf.eprintf "%s window %d%s: %d rounds, p50 %.1f us, server CPU %.1f us and %.2f context switches a round\n%!"
        (shape_name shape) k (if traced then " (traced)" else "") w.rounds
        (Util.Samples.quantile_range latencies ~from:lat_from ~until:w.lat_until 0.5 /. 1e3)
        (float_of_int (server_delta w).cpu_ns /. 1e3 /. float_of_int (max 1 w.rounds))
        (float_of_int (server_delta w).ctx_switches /. float_of_int (max 1 w.rounds));
      windows (k + 1) (w :: acc)
    end
  in
  let windows = windows 0 [] in
  Spans.current := tracer;
  (* Runs too short for [rss_rounds] serve the rest unmeasured. *)
  while total_rounds () < rss_rounds do
    one_round ~timed:false
  done;
  let bytes_per_frame =
    Array.mapi
      (fun i c ->
        float_of_int (Client.bytes_sent c + Client.bytes_received c - bytes0.(i))
        /. float_of_int (max 1 frames.(i)))
      d.conns
  in
  (* Final checks: both conservation identities per session, the round
     count each server reports, and for the routed shape that every
     autosnapped session file restores. *)
  Array.iteri
    (fun i conn ->
      let session = d.sessions.(i) in
      match call ~timed:false ~parent:Spans.no_span conn "stats" (Wire.Stats { session }) with
      | Some (Wire.Stats_ok { round; _ } as r) ->
          if not (conserved r) then failure "%s: final stats violate conservation" session;
          if round <> rounds_done.(i) then
            failure "%s: server reports round %d, client stepped %d" session round rounds_done.(i)
      | _ -> failure "%s: no final stats" session)
    d.conns;
  if shape = Routed then begin
    attempted := !attempted + List.length d.shards;
    List.iter (fun m -> failures := m :: !failures) (check_autosnaps d rounds_done)
  end;
  let shard_metrics = List.map (fun s -> fetch_metrics s.shard_sock) d.shards in
  let end_rss_kb = server_rss_kb () in
  tear_down d;
  for k = before + 1 to setups do
    tear_down (set_up k)
  done;
  {
    setup_s = List.rev !setup_s;
    windows;
    latencies;
    calls;
    failures = List.rev !failures;
    attempted = !attempted;
    peak_rss_kb = !peak_rss_kb;
    end_rss_kb;
    total_rounds = total_rounds ();
    shard_metrics;
    bytes_per_frame;
    requests = List.rev !requests;
    replies = List.rev !replies;
  }

let plain o = List.filter (fun w -> not w.traced) o.windows

let per_window o f = Util.median_list (List.map f (plain o))

let round_p50_us o =
  per_window o (fun w ->
      Util.Samples.quantile_range o.latencies ~from:w.lat_from ~until:w.lat_until 0.5)
  /. 1e3

let end_to_end o =
  [
    Util.metric "setup_s" "s" (Util.median_list o.setup_s);
    Util.metric "peak_rss_mb" "MiB" (float_of_int o.peak_rss_kb /. 1024.);
    Util.metric "sim_rounds_per_s" "1/s"
      (per_window o (fun w -> float_of_int w.rounds /. w.wall_s));
    Util.metric "round_p50_us" "us" (round_p50_us o);
    Util.metric "server_cpu_us_per_round" "us"
      (per_window o (fun w ->
           float_of_int (server_delta w).Procs.cpu_ns /. 1e3 /. float_of_int (max 1 w.rounds)));
  ]

(* Figures reported beside the gated ones, never gated: closed-loop p99
   and the sample counts behind every median. *)
let reported o =
  let all = List.concat_map (fun w ->
      Array.to_list (Array.init (w.lat_until - w.lat_from) (fun i -> w.lat_from + i)))
      (plain o) in
  let rounds = List.length all in
  let p99 =
    if rounds = 0 then nan
    else
      Util.quantile 0.99
        (Array.of_list (List.map (fun i -> float_of_int o.latencies.Util.Samples.data.(i)) all))
      /. 1e3
  in
  [ ("round_p99_us", p99); ("rounds", float_of_int rounds);
    ("end_rss_mb", float_of_int o.end_rss_kb /. 1024.);
    (* Server memory growth per 1000 rounds served after [rss_rounds]. *)
    ("rss_growth_kb_per_1k_rounds",
     if o.total_rounds <= rss_rounds then nan
     else
       float_of_int (o.end_rss_kb - o.peak_rss_kb) *. 1000.
       /. float_of_int (o.total_rounds - rss_rounds));
    ("windows", float_of_int (List.length (plain o)));
    ("setups", float_of_int (List.length o.setup_s));
    ("setup_min_s", List.fold_left Float.min infinity o.setup_s);
    ("setup_max_s", List.fold_left Float.max 0. o.setup_s) ]
