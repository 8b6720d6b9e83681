(* The [rrs trace-run] pipeline, end to end in process: an engine run
   streamed to rrs-events JSONL exactly as the CLI does it (probes and
   the phase profile on, dlru-edf), then read back line by line and
   rebuilt by [Rrs_stats.Report]. The specs and the fault plan are the
   ones CI runs through the CLI:

     rrs trace-run "lru-killer:n=8,delta=2,j=5,k=17" -n 8
     rrs faults gen -n 8 --seed 17 --horizon 256 --crash-density 0.15 \
       --reconfig-fail-rate 0.02
     rrs trace-run "uniform:colors=8,load=0.9,seed=3" -n 8 --faults PLAN *)

module Engine = Rrs_sim.Engine
module Event_sink = Rrs_sim.Event_sink
module Ledger = Rrs_sim.Ledger
module Report = Rrs_stats.Report

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let instance spec =
  match Rrs_workload.Spec.parse spec with
  | Ok instance -> instance
  | Error message -> Alcotest.fail message

(* Run, stream to a temporary file, and hand the file and the live
   ledger to [inspect]. *)
let with_trace ~spec ~n ?faults inspect =
  let path = Filename.temp_file "rrs-trace-run" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let channel = open_out path in
      let result =
        Fun.protect
          ~finally:(fun () -> close_out channel)
          (fun () ->
            Engine.run ~sink:(Event_sink.Jsonl channel)
              ~probes:(Rrs_obs.Probe.create_registry ())
              ~profile:true ?faults ~n
              ~policy:(module Rrs_core.Policy_lru_edf)
              (instance spec))
      in
      inspect ~path result.Engine.ledger)

(* The first line is the rrs-events/2 header and the last the closing
   summary, whose cost is [delta * reconfig_count + drop_count]; then
   [rrs report] rebuilds the run: every line parses, the folded totals
   reconcile with the summary, and its summary line is the live one. *)
let check_trace path ledger =
  (* The first line, and the last of the file's final 4 KiB. *)
  let first, last =
    In_channel.with_open_bin path (fun channel ->
        let first = Option.value (In_channel.input_line channel) ~default:"" in
        let length = Int64.to_int (In_channel.length channel) in
        In_channel.seek channel (Int64.of_int (max 0 (length - 4096)));
        let tail = In_channel.input_all channel in
        let lines =
          List.filter
            (fun line -> String.trim line <> "")
            (String.split_on_char '\n' tail)
        in
        (first, List.nth lines (List.length lines - 1)))
  in
  let parse line =
    match Event_sink.parse_line line with
    | Ok parsed -> parsed
    | Error message -> Alcotest.fail message
  in
  check_bool "schema tag" true
    (String.starts_with
       ~prefix:(Printf.sprintf "{\"schema\":%S" Event_sink.schema_version)
       first);
  let delta =
    match parse first with
    | Event_sink.Header header -> header.hdr_delta
    | _ -> Alcotest.fail "first line is not the header"
  in
  (match parse last with
  | Event_sink.Summary summary ->
      check "summary cost identity"
        ((delta * summary.sum_reconfig_count) + summary.sum_drop_count)
        summary.sum_cost;
      check_bool "failed reconfigurations counted" true
        (summary.sum_failed_reconfig_count >= 0)
  | _ -> Alcotest.fail "last line is not the summary");
  match Report.of_path path with
  | Error message -> Alcotest.fail message
  | Ok report ->
      Alcotest.(check string)
        "report summary = live summary"
        (Format.asprintf "%a" Ledger.pp_summary ledger)
        (Report.summary_string report);
      report

let test_traced_run () =
  with_trace ~spec:"lru-killer:n=8,delta=2,j=5,k=17" ~n:8 (fun ~path ledger ->
      ignore (check_trace path ledger))

let test_fault_injected_run () =
  let faults =
    Rrs_workload.Fault_gen.random ~seed:17 ~n:8 ~horizon:256
      ~crash_density:0.15 ~reconfig_fail_rate:0.02 ()
  in
  with_trace ~spec:"uniform:colors=8,load=0.9,seed=3" ~n:8 ~faults
    (fun ~path ledger ->
      let report = check_trace path ledger in
      check_bool "crash events present" true (report.Report.crash_count > 0);
      check_bool "repair events present" true (report.repair_count > 0))

let suite =
  [
    ( "obs.trace_run",
      [
        Alcotest.test_case "traced engine run" `Quick test_traced_run;
        Alcotest.test_case "fault-injected run" `Quick test_fault_injected_run;
      ] );
  ]
