(* Layers timed in isolation for the traced run, each through its public
   interface: the wire codecs on the exact frames the serve workloads
   sent, the push parser ([Wire.Stream]), the engine round at the serve
   configuration, a session snapshot at the routed shards' checkpoint
   interval, and the router's ring lookup. Every figure is the median of
   [reps] timed batches. *)

module Wire = Rrs_server.Wire
module Stepper = Rrs_sim.Stepper
module Session = Rrs_server.Session

let reps = 7

(* ns per item of [f], timed in batches of at least ~20 ms. *)
let ns_per ~items f =
  let batch () =
    let t0 = Util.now_ns () and k = ref 0 in
    while Util.now_ns () - t0 < 20_000_000 do
      f ();
      incr k
    done;
    float_of_int (Util.now_ns () - t0) /. float_of_int (!k * items)
  in
  ignore (batch ());
  Util.median (Array.init reps (fun _ -> batch ()))

type codec = { encode_ns : float; decode_ns : float }

(* Encode is the complete wire bytes ([to_wire]); decode is the codec
   over one frame's bytes as the parser hands them over (the JSON body
   for /1, the whole binary frame for /2). *)
let codec framing frames =
  let frames = Array.of_list frames in
  let items = Array.length frames in
  let wire = Array.map (Wire.to_wire framing) frames in
  let bodies = match framing with Wire.V1 -> Array.map Wire.encode frames | Wire.V2 -> wire in
  let decode = match framing with Wire.V1 -> Wire.decode | Wire.V2 -> Wire.decode_binary in
  Array.iter
    (fun b -> match decode b with Ok _ -> () | Error m -> Util.fail "decode: %s" m)
    bodies;
  let name = match framing with Wire.V1 -> "wire.v1" | Wire.V2 -> "wire.v2" in
  let timed what f =
    let span = Spans.enter (name ^ "." ^ what) in
    let ns = ns_per ~items f in
    Spans.leave span;
    ns
  in
  {
    encode_ns =
      timed "encode" (fun () -> Array.iter (fun f -> ignore (Wire.to_wire framing f)) frames);
    decode_ns = timed "decode" (fun () -> Array.iter (fun b -> ignore (decode b)) bodies);
  }

(* [Wire.Stream] feed + next over both framings' bytes of [frames]. *)
let stream_ns_per_frame frames =
  let per framing =
    let bytes = String.concat "" (List.map (Wire.to_wire framing) frames) in
    let items = List.length frames in
    let span = Spans.enter "wire.stream" in
    let ns =
      ns_per ~items (fun () ->
          let s = Wire.Stream.create framing in
          Wire.Stream.feed_string s bytes;
          let rec drain k =
            match Wire.Stream.next s with
            | Some (Wire.Frame _) -> drain (k + 1)
            | Some _ -> Util.fail "stream: malformed benchmark frame"
            | None -> k
          in
          if drain 0 <> items then Util.fail "stream: lost frames")
    in
    Spans.leave span;
    ns
  in
  (per Wire.V1 +. per Wire.V2) /. 2.

let serve_config =
  { Stepper.name = "serve"; delta = Serve_load.delta; bounds = Serve_load.bounds;
    n = Serve_load.n; speed = 1; horizon = 0 }

(* ns per engine round at the serve configuration, with the stepper a
   served session builds: the default in-memory event record, a probe
   registry and the session default checkpoint interval. One stepper
   runs on through every timed batch, so its event record grows as a
   served session's does. *)
let serve_round_ns ~seed =
  let rounds = 2000 in
  let requests =
    let rng = Random.State.make [| seed; 0x5e |] in
    Array.init rounds (fun _ -> Serve_load.request rng)
  in
  let policy = Option.get (Rrs_core.Policies.find Serve_load.policy) in
  let stepper =
    Stepper.create ~probes:(Rrs_obs.Probe.create_registry ())
      ~checkpoint_every:Session.default_checkpoint_every ~policy serve_config
  in
  let span = Spans.enter "stepper.serve-config" in
  let ns =
    ns_per ~items:rounds (fun () ->
        Array.iter
          (fun req ->
            Stepper.feed stepper req;
            Stepper.step stepper)
          requests)
  in
  Spans.leave span;
  ns

(* A session at the serve configuration with the routed shards'
   checkpoint interval, stepped [rounds] rounds, then saved repeatedly:
   (median save us, snapshot bytes). *)
let snapshot ~seed ~dir =
  let session =
    match
      Session.create ~name:"snapbench" ~policy:Serve_load.policy
        ~checkpoint_every:Serve_load.checkpoint_every serve_config
    with
    | Ok s -> s
    | Error m -> Util.fail "session: %s" m
  in
  let rng = Random.State.make [| seed; 0x5a |] in
  for _ = 1 to 1000 + Random.State.int rng Serve_load.checkpoint_every do
    let req = Serve_load.request rng in
    (match
       Session.feed session ~colors:(Array.of_list (List.map fst req))
         ~counts:(Array.of_list (List.map snd req))
     with
    | Ok _ -> ()
    | Error m -> Util.fail "session feed: %s" m);
    match Session.step session ~rounds:1 with Ok _ -> () | Error m -> Util.fail "session step: %s" m
  done;
  let path = Filename.concat dir "bench.sess.jsonl" in
  let span = Spans.enter "snapshot.save" in
  let save_ns = ns_per ~items:1 (fun () -> Session.save session ~path) in
  Spans.leave span;
  let bytes = String.length (Session.snapshot session) in
  (match Session.load ~path () with
  | Ok restored -> Session.release restored
  | Error m -> Util.fail "snapshot does not restore: %s" m);
  Session.release session;
  (save_ns /. 1e3, float_of_int bytes)

let ring_ns () =
  let ring = Rrs_server.Router.Ring.make [| "shard-a"; "shard-b" |] in
  let keys = Array.init 64 (Printf.sprintf "session-%d") in
  ns_per ~items:64 (fun () -> Array.iter (fun k -> ignore (Rrs_server.Router.Ring.index ring k)) keys)
