(* The benchmark's measuring program. run.py builds it and runs it as

     rrsbench.exe --rrs PATH --workload W --seed N --seconds S --trace 0|1

   in its own process group. Workloads (see NOTES.md):

   - engine-batch   offline Stepper loops under dlru-edf, edf and dlru;
   - serve-session  closed-loop sessions against one [rrs serve];
   - serve-routed   the same loop through [rrs route] to two autosnap
                    shards.

   With --trace 0 the last stdout line carries the gated end-to-end
   metrics; with --trace 1 it carries the per-layer metrics of a
   separate traced run, which also prints each layer's self time and
   writes its spans under .perfbench_run/spans/. The line before the
   last records the seed and figures reported but not gated.

   [rrsbench.exe --engine-setup SEED] is the fresh process in which
   engine-batch measures one set-up. *)

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable rrs : string;
}

let workloads = [ "engine-batch"; "serve-session"; "serve-routed" ]

let usage () =
  prerr_endline
    "usage: rrsbench.exe --rrs PATH --workload (engine-batch|serve-session|serve-routed) \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let a = { workload = ""; seed = 1; seconds = 10.; trace = false; rrs = "" } in
  let rec go = function
    | "--workload" :: w :: rest -> a.workload <- w; go rest
    | "--seed" :: s :: rest -> a.seed <- int_of_string s; go rest
    | "--seconds" :: s :: rest -> a.seconds <- float_of_string s; go rest
    | "--trace" :: t :: rest -> a.trace <- t = "1"; go rest
    | "--rrs" :: p :: rest -> a.rrs <- p; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem a.workload workloads) || a.rrs = "" || a.seconds <= 0. then usage ();
  a

(* Set-ups per untraced run; the median is reported. A serve set-up
   takes milliseconds, an engine-batch one most of a second. *)
let serve_setups = 15
let engine_setups = 9
let window_s = 1.0

(* ---- the traced run: every layer, from every segment ---- *)

let int_metric fields key =
  match List.assoc_opt key fields with
  | Some (Rrs_sim.Event_sink.Json.Vint v) -> float_of_int v
  | _ -> nan

let mean = function [] -> nan | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let per_round_metric (o : Serve_load.outcome) f =
  Serve_load.per_window o (fun w -> f w /. float_of_int (max 1 w.Serve_load.rounds))

let print_ops oc phases =
  Printf.fprintf oc "%-16s %10s %8s\n" "phase" "attempted" "failed";
  List.iter (fun (p, a, f) -> Printf.fprintf oc "%-16s %10d %8d\n" p a f) phases

let traced_run a =
  let spans = Spans.create 1_000_000 in
  Spans.current := Some spans;
  let share w = a.seconds *. if w = a.workload then 0.5 else 0.2 in
  let alternate k = k land 1 = 1 in
  let engine =
    Engine_load.run ~seed:a.seed ~seconds:(share "engine-batch") ~fresh_setups:0 ~min_cycles:2
      ~trace:alternate
  in
  let serve shape =
    Serve_load.run ~rrs:a.rrs ~shape ~seed:a.seed ~seconds:(share (Serve_load.shape_name shape))
      ~setups:1 ~window_s ~trace:alternate
  in
  let direct = serve Serve_load.Direct in
  let routed = serve Serve_load.Routed in
  (* The client and server layers come from the named serve workload,
     from serve-session otherwise. *)
  let main = if a.workload = "serve-routed" then routed else direct in
  let frames = direct.requests @ direct.replies in
  let v1 = Layers.codec Rrs_server.Wire.V1 frames and v2 = Layers.codec Rrs_server.Wire.V2 frames in
  let stream_ns = Layers.stream_ns_per_frame direct.requests in
  let serve_round_ns = Layers.serve_round_ns ~seed:a.seed in
  let save_us, snap_bytes = Layers.snapshot ~seed:a.seed ~dir:(Procs.scratch_dir "snapshot") in
  let ring_ns = Layers.ring_ns () in
  let instance = engine.instance in
  let jobs = float_of_int (Rrs_sim.Instance.total_jobs instance) in
  let setup = List.hd engine.setups in
  let plain_cycles = List.filter (fun c -> not c.Engine_load.traced) engine.cycles in
  let loop_stat policy f =
    Util.median_list
      (List.map (fun c -> f (List.find (fun l -> l.Engine_load.policy = policy) c.Engine_load.loops))
         plain_cycles)
  in
  let rounds = float_of_int instance.horizon in
  let phases = Engine_load.phase_profile instance in
  let shard_metric key = mean (List.map (fun m -> int_metric m key) main.shard_metrics) in
  let p50_call kind =
    Util.median (Util.Samples.to_floats (List.assoc kind main.calls)) /. 1e3
  in
  (* Attribution of serve-session's round. Every process shares one CPU,
     so a round's mean wall time (stats reads amortized) is the client's
     CPU plus the server's, split into wire codec, engine and the rest,
     plus wall time no process of the run spent on CPU (unattributed:
     other tenants, idle waits). The median round is the mean less the
     tail. *)
  let round_us = Serve_load.round_p50_us direct in
  let mean_round_us = Serve_load.per_window direct (fun w -> w.wall_s *. 1e6 /. float_of_int w.rounds) in
  let client_cpu = per_round_metric direct (fun w -> w.client_cpu_s *. 1e6) in
  let server_cpu =
    per_round_metric direct (fun w -> float_of_int (Serve_load.server_delta w).cpu_ns /. 1e3)
  in
  (* feed + stepped + step + stepped: four frames a round, each encoded
     once and decoded once, half on each side, mean of the framings. *)
  let wire_us =
    4. *. ((v1.encode_ns +. v1.decode_ns +. v2.encode_ns +. v2.decode_ns) /. 2.) /. 1e3
  in
  let engine_us = serve_round_ns /. 1e3 in
  let attributed =
    [ ("client", client_cpu -. (wire_us /. 2.));
      ("wire", wire_us);
      ("server", server_cpu -. (wire_us /. 2.) -. engine_us);
      ("engine", engine_us) ]
  in
  let unattributed =
    mean_round_us -. List.fold_left (fun acc (_, v) -> acc +. v) 0. attributed
  in
  let tail = mean_round_us -. round_us in
  let engine_overhead =
    let cycle_ns traced =
      Util.median_list
        (List.filter_map
           (fun c ->
             if c.Engine_load.traced = traced then
               Some (Engine_load.cycle_wall c /. float_of_int (Engine_load.cycle_rounds instance))
             else None)
           engine.cycles)
    in
    100. *. (cycle_ns true -. cycle_ns false) /. cycle_ns false
  in
  let serve_overhead (o : Serve_load.outcome) =
    let p50 traced =
      Util.median_list
        (List.filter_map
           (fun w ->
             if w.Serve_load.traced = traced then
               Some (Util.Samples.quantile_range o.latencies ~from:w.lat_from ~until:w.lat_until 0.5)
             else None)
           o.windows)
    in
    100. *. (p50 true -. p50 false) /. p50 false
  in
  let overhead =
    match a.workload with
    | "engine-batch" -> engine_overhead
    | "serve-session" -> serve_overhead direct
    | _ -> serve_overhead routed
  in
  let failures = engine.failures @ direct.failures @ routed.failures in
  let attempted = engine.attempted + direct.attempted + routed.attempted in
  let m = Util.metric in
  let policy_metrics =
    List.concat_map
      (fun p ->
        [ m ("stepper.ns_per_round." ^ p) "ns" (loop_stat p (fun l -> l.wall_s *. 1e9 /. rounds));
          m ("stepper.minor_words_per_round." ^ p) "words"
            (loop_stat p (fun l -> l.minor_words /. rounds)) ])
      Engine_load.policies
  in
  let metrics =
    [ m "gen.us_per_job" "us" (setup.gen_s *. 1e6 /. jobs);
      m "gen.minor_words_per_job" "words" (setup.gen_minor_words /. jobs) ]
    @ policy_metrics
    @ List.map
        (fun (name, ns) -> m (Printf.sprintf "stepper.phase.%s_ns_per_round" name) "ns" ns)
        phases
    @ [ m "stepper.ns_per_round.serve-config" "ns" serve_round_ns;
        m "wire.v1.encode_ns" "ns" v1.encode_ns;
        m "wire.v1.decode_ns" "ns" v1.decode_ns;
        m "wire.v2.encode_ns" "ns" v2.encode_ns;
        m "wire.v2.decode_ns" "ns" v2.decode_ns;
        m "wire.stream.ns_per_frame" "ns" stream_ns;
        m "wire.v1.bytes_per_frame" "bytes" direct.bytes_per_frame.(0);
        m "wire.v2.bytes_per_frame" "bytes" direct.bytes_per_frame.(1);
        m "client.call_p50_us.feed" "us" (p50_call "feed");
        m "client.call_p50_us.step" "us" (p50_call "step");
        m "client.call_p50_us.stats" "us" (p50_call "stats");
        m "client.cpu_us_per_round" "us"
          (per_round_metric main (fun w -> w.client_cpu_s *. 1e6));
        m "server.syscalls_per_round" "count"
          (per_round_metric main (fun w -> float_of_int w.shard_delta.syscalls));
        m "server.ctx_switches_per_round" "count"
          (per_round_metric main (fun w -> float_of_int w.shard_delta.ctx_switches));
        m "server.req_p50_us.feed" "us" (shard_metric "req_latency_us_feed_p50");
        m "server.req_p50_us.step" "us" (shard_metric "req_latency_us_step_p50");
        m "server.req_p50_us.stats" "us" (shard_metric "req_latency_us_stats_p50");
        m "server.lock_wait_p99_us" "us" (shard_metric "lock_wait_us_p99");
        m "router.cpu_us_per_round" "us"
          (per_round_metric routed (fun w -> float_of_int w.router_delta.cpu_ns /. 1e3));
        m "router.syscalls_per_round" "count"
          (per_round_metric routed (fun w -> float_of_int w.router_delta.syscalls));
        m "router.ctx_switches_per_round" "count"
          (per_round_metric routed (fun w -> float_of_int w.router_delta.ctx_switches));
        m "router.hop_us" "us" (Serve_load.round_p50_us routed -. round_us);
        m "router.ring_ns" "ns" ring_ns;
        m "shard.write_bytes_per_round" "bytes"
          (per_round_metric routed (fun w -> float_of_int w.shard_delta.wchar));
        m "snapshot.save_us" "us" save_us;
        m "snapshot.bytes" "bytes" snap_bytes ]
    @ List.map (fun (layer, v) -> m ("attr." ^ layer ^ "_us") "us" v) attributed
    @ [ m "attr.unattributed_us" "us" unattributed;
        m "attr.tail_us" "us" tail;
        m "trace.overhead_pct" "%" overhead;
        m "ops.attempted" "count" (float_of_int attempted);
        m "ops.failed" "count" (float_of_int (List.length failures)) ]
  in
  Spans.current := None;
  (* The report: layer self times, the round attribution, the ops. *)
  Printf.eprintf "\n== span self times (traced windows and cycles)\n";
  Spans.print_summary stderr spans;
  Printf.eprintf "\n== serve-session round attribution (us per round, medians over windows)\n";
  Printf.eprintf "%-14s %10.2f   (wall / rounds, stats reads amortized)\n" "mean round" mean_round_us;
  List.iter (fun (layer, v) -> Printf.eprintf "  %-12s %10.2f\n" layer v) attributed;
  Printf.eprintf "  %-12s %10.2f   (wall time no process of the run spent on CPU)\n"
    "unattributed" unattributed;
  Printf.eprintf "%-14s %10.2f   (mean round - tail)\n" "round_p50" round_us;
  Printf.eprintf "  %-12s %10.2f\n" "tail" tail;
  Printf.eprintf
    "server req p50s come from power-of-two latency buckets (upper bounds)\n\n";
  print_ops stderr
    [ ("engine-batch", engine.attempted, List.length engine.failures);
      ("serve-session", direct.attempted, List.length direct.failures);
      ("serve-routed", routed.attempted, List.length routed.failures) ];
  let dir = Filename.concat Procs.run_root "spans" in
  Procs.mkdir_p dir;
  Spans.write spans
    ~path:(Filename.concat dir (Printf.sprintf "%s-seed%d.tsv" a.workload a.seed));
  (metrics, failures, attempted, [])

(* ---- the untraced run: the gated end-to-end metrics ---- *)

let plain_run a =
  match a.workload with
  | "engine-batch" ->
      let o =
        Engine_load.run ~seed:a.seed ~seconds:a.seconds ~fresh_setups:engine_setups ~min_cycles:3
          ~trace:(fun _ -> false)
      in
      (Engine_load.end_to_end o, o.failures, o.attempted,
       [ ("cycles", float_of_int (List.length o.cycles));
         ("jobs", float_of_int (Rrs_sim.Instance.total_jobs o.instance)) ])
  | w ->
      let shape = if w = "serve-session" then Serve_load.Direct else Serve_load.Routed in
      let o =
        Serve_load.run ~rrs:a.rrs ~shape ~seed:a.seed ~seconds:a.seconds ~setups:serve_setups ~window_s
          ~trace:(fun _ -> false)
      in
      (Serve_load.end_to_end o, o.failures, o.attempted, Serve_load.reported o)

let () =
  (match Sys.argv with
  | [| _; "--engine-setup"; seed |] ->
      Engine_load.print_set_up ~seed:(int_of_string seed);
      exit 0
  | _ -> ());
  let a = parse_args () in
  Procs.install_handlers ();
  let metrics, failures, attempted, reported =
    if a.trace then traced_run a else plain_run a
  in
  Procs.cleanup ();
  let failures = failures @ Procs.assert_no_children () in
  List.iter (fun f -> Printf.eprintf "FAILED: %s\n" f) failures;
  Printf.printf "{\"workload\": %s, \"seed\": %d, \"trace\": %b, \"reported\": {%s}}\n"
    (Util.json_string a.workload) a.seed a.trace
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (Util.json_string k) (Util.json_float v))
          reported));
  let failed = List.length failures in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (failed = 0) attempted failed (Util.metrics_json metrics);
  exit (if failed = 0 then 0 else 1)
