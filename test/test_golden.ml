(* Golden digests of the engine's observable output: for every policy
   and every corpus entry below, the MD5 of the rrs-events JSONL stream
   (what [rrs trace-run] writes) and of the in-memory ledger (events,
   counters, policy stats, final assignment) over all combinations of
   n, speed and fault plan. The digests were recorded from the
   comparator-ranked engine (heap top-k, hash-table cached sets,
   persistent per-color deadline maps); the allocation-free round must
   reproduce them byte for byte. A mismatch means a decision changed:
   a tie broken differently, a cached set placed in another order, a
   drop reported in another round. *)

module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger
module Event_sink = Rrs_sim.Event_sink
module Instance = Rrs_sim.Instance

let corpus =
  [
    ("uniform:colors=12,load=0.9,horizon=160,seed=5", [ 8; 16 ]);
    ("bursty:colors=12,load=1.0,horizon=160,seed=7", [ 8; 16 ]);
    ("lru-killer:n=8,delta=2,j=4,k=9", [ 8; 16 ]);
    ("edf-killer:n=8,delta=10,j=4,k=6", [ 8; 16 ]);
    (* Arbitrary (non power-of-two) bounds and unbatched arrivals. *)
    ("unbatched:colors=10,horizon=160,seed=3", [ 8; 16 ]);
    (* Cached sets above 32 colors: the EDF-style sets order their new
       copies the way a growing 16-bucket hash table iterates. *)
    ("uniform:colors=40,load=0.9,horizon=96,seed=2", [ 72 ]);
  ]

let policies (instance : Instance.t) : (string * (module Rrs_sim.Policy.POLICY)) list =
  [
    ("dlru", (module Rrs_core.Policy_lru));
    ("edf", (module Rrs_core.Policy_edf));
    ("dlru-edf", (module Rrs_core.Policy_lru_edf));
    ("seq-edf", (module Rrs_core.Seq_edf));
    ("lru-k", (module Rrs_core.Policy_lru_k));
    ( "landlord",
      Rrs_uniform.Landlord.policy
        ~drop_costs:
          (Array.init (Instance.num_colors instance) (fun c -> 1 + (c mod 3))) );
  ]

let color_opt = function None -> "-" | Some c -> string_of_int c

let show_event = function
  | Ledger.Reconfig { round; mini_round; location; previous; next } ->
      Printf.sprintf "R%d.%d@%d:%s>%d" round mini_round location
        (color_opt previous) next
  | Ledger.Drop { round; color; count } ->
      Printf.sprintf "D%d:%dx%d" round color count
  | Ledger.Execute { round; mini_round; location; color; deadline } ->
      Printf.sprintf "E%d.%d@%d:%d<%d" round mini_round location color deadline
  | Ledger.Crash { round; location } -> Printf.sprintf "C%d@%d" round location
  | Ledger.Repair { round; location } -> Printf.sprintf "P%d@%d" round location
  | Ledger.Reconfig_failed { round; mini_round; location; previous; attempted }
    ->
      Printf.sprintf "F%d.%d@%d:%s>%d" round mini_round location
        (color_opt previous) attempted

let fault_plan ~n (instance : Instance.t) =
  Rrs_workload.Fault_gen.random ~seed:17 ~n ~horizon:instance.horizon
    ~crash_density:0.15 ~reconfig_fail_rate:0.05 ()

(* The JSONL stream of one run, as [trace-run] writes it. *)
let jsonl_of_run ~path ~n ~speed ?faults ~policy instance =
  let channel = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out channel)
    (fun () ->
      ignore
        (Engine.run ~sink:(Event_sink.Jsonl channel) ~speed ?faults ~n ~policy
           instance));
  In_channel.with_open_bin path In_channel.input_all

let ledger_of_run ~n ~speed ?faults ~policy instance =
  let result = Engine.run ~speed ?faults ~n ~policy instance in
  let buffer = Buffer.create 4096 in
  List.iter
    (fun event ->
      Buffer.add_string buffer (show_event event);
      Buffer.add_char buffer ' ')
    (Ledger.events result.ledger);
  Buffer.add_string buffer
    (Format.asprintf "| %a |" Ledger.pp_summary result.ledger);
  List.iter
    (fun (key, value) -> Buffer.add_string buffer (Printf.sprintf " %s=%d" key value))
    result.stats;
  Buffer.add_string buffer " |";
  Array.iter
    (fun c -> Buffer.add_string buffer (Printf.sprintf " %d" c))
    result.final_assignment;
  Buffer.contents buffer

(* One entry per (policy, spec): the two digests fold every n, speed
   and fault-plan variant of the pair. *)
let digests corpus =
  let path = Filename.temp_file "rrs-golden" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.concat_map
        (fun (spec, ns) ->
          let instance =
            match Rrs_workload.Spec.parse spec with
            | Ok instance -> instance
            | Error message -> failwith message
          in
          List.map
            (fun (name, policy) ->
              let traces = Buffer.create 65536 and ledgers = Buffer.create 65536 in
              List.iter
                (fun n ->
                  List.iter
                    (fun speed ->
                      List.iter
                        (fun faults ->
                          Buffer.add_string traces
                            (jsonl_of_run ~path ~n ~speed ?faults ~policy instance);
                          Buffer.add_string ledgers
                            (ledger_of_run ~n ~speed ?faults ~policy instance);
                          Buffer.add_char ledgers '\n')
                        [ None; Some (fault_plan ~n instance) ])
                    [ 1; 2 ])
                ns;
              ( name ^ " " ^ spec,
                ( Digest.to_hex (Digest.string (Buffer.contents traces)),
                  Digest.to_hex (Digest.string (Buffer.contents ledgers)) ) ))
            (policies instance))
        corpus)

let expected =
  [
    ("dlru uniform:colors=12,load=0.9,horizon=160,seed=5",
     ("8eeff9f637c4c389704f9ea596b272c1", "936643054da0a31e32e669479b44492e"));
    ("edf uniform:colors=12,load=0.9,horizon=160,seed=5",
     ("e55e58664b43be781000933096d8ad2b", "e92fea70724527d72b5b8d62469774bc"));
    ("dlru-edf uniform:colors=12,load=0.9,horizon=160,seed=5",
     ("9dbf8da7c75ed1e914f14ddc5bcf10c2", "22ea9205e6d4b6e87de160f21bb83b67"));
    ("seq-edf uniform:colors=12,load=0.9,horizon=160,seed=5",
     ("84fa47c6f32c95d4992cf8305d2c763f", "793080ad2bd9a31257017cadf5491df2"));
    ("lru-k uniform:colors=12,load=0.9,horizon=160,seed=5",
     ("ff2eaa24202fca7d3eb60b094f590c44", "c9504bd38712336aadc27d5d606599c6"));
    ("landlord uniform:colors=12,load=0.9,horizon=160,seed=5",
     ("030ffc2e384894633ad703e82cbfc49c", "001ef4864998906b3f1130c5f9301e21"));
    ("dlru bursty:colors=12,load=1.0,horizon=160,seed=7",
     ("6184f505a1f6f8b4ea03f3b96e18a94b", "3cfa3a3fb0f9fe5c245aabe77637402f"));
    ("edf bursty:colors=12,load=1.0,horizon=160,seed=7",
     ("4e8f21ce68317950aeb6a1b49c706162", "3d6a79c124290679eb7163af1bc56324"));
    ("dlru-edf bursty:colors=12,load=1.0,horizon=160,seed=7",
     ("039bb74d87bf2d8f1c759197135599dc", "bbe2430685e9c6bbc35baec7c96113c2"));
    ("seq-edf bursty:colors=12,load=1.0,horizon=160,seed=7",
     ("be49c9794caa18fb8a98414317e42d6c", "1057924f2b75eeaeac3fa369c34059e6"));
    ("lru-k bursty:colors=12,load=1.0,horizon=160,seed=7",
     ("c7c113e849292ae4c26e27f9f3b521cf", "87813206c8f4356aa45356e4306b1fb5"));
    ("landlord bursty:colors=12,load=1.0,horizon=160,seed=7",
     ("5c93573c6bd5f026c1ff3b2b42398883", "84d9b28bb293a5884f829ed6f1d10003"));
    ("dlru lru-killer:n=8,delta=2,j=4,k=9",
     ("198c9ce952fc3a34241759b649c160d0", "6f4f57fd2052a85539d289d1c5b20c8d"));
    ("edf lru-killer:n=8,delta=2,j=4,k=9",
     ("911ed5e73dd0b4f6e82cfa56a66ab7db", "dd44f8e47622129b7c13a6f4c9b7fb7f"));
    ("dlru-edf lru-killer:n=8,delta=2,j=4,k=9",
     ("c5ca6349c74983f17b665e817a421c65", "3961696ff324a2f1e3441fcb43d114f7"));
    ("seq-edf lru-killer:n=8,delta=2,j=4,k=9",
     ("6d28dc7457bcc474635f4f8636a91278", "e31f1beb03f5cb0dbb628a78d0b0e3d9"));
    ("lru-k lru-killer:n=8,delta=2,j=4,k=9",
     ("198c9ce952fc3a34241759b649c160d0", "6f4f57fd2052a85539d289d1c5b20c8d"));
    ("landlord lru-killer:n=8,delta=2,j=4,k=9",
     ("8b4643758049cc00bd88859204fcc090", "0007fb65ff76807f0150a4c3334187b9"));
    ("dlru edf-killer:n=8,delta=10,j=4,k=6",
     ("0b402651d86f4b571db118d360434b21", "130ce74c9a4a8905adeccb295f3e765c"));
    ("edf edf-killer:n=8,delta=10,j=4,k=6",
     ("58a21a69bbd36afbbdd36524e18fa651", "47ef7b818a150b1c90ce7f6438aae383"));
    ("dlru-edf edf-killer:n=8,delta=10,j=4,k=6",
     ("6322cabc2c799dc91aa80e4d81036dcb", "3c983b19018ff2f2d5db22dc65f797d5"));
    ("seq-edf edf-killer:n=8,delta=10,j=4,k=6",
     ("47c58d60179b9d7212dba439e586b9f9", "f4cc19841b9cc367b480c98e00ce3401"));
    ("lru-k edf-killer:n=8,delta=10,j=4,k=6",
     ("0b402651d86f4b571db118d360434b21", "130ce74c9a4a8905adeccb295f3e765c"));
    ("landlord edf-killer:n=8,delta=10,j=4,k=6",
     ("bf7d2ceb8fa799c1aa58a6af8d871649", "ddde628ce51b91f135d8272838de1f9d"));
    ("dlru unbatched:colors=10,horizon=160,seed=3",
     ("0dafca75cfa4ddc98a5c1799e6530851", "34b623c505aecbb98bbe755153274d60"));
    ("edf unbatched:colors=10,horizon=160,seed=3",
     ("b2c2a26351ba66476575b8696d94a4b1", "7a0a716cc16caf11602835bb3124e721"));
    ("dlru-edf unbatched:colors=10,horizon=160,seed=3",
     ("414b13b60b4abf0c5c22cc46aa09c374", "c58746907054210e0438e39a658273f9"));
    ("seq-edf unbatched:colors=10,horizon=160,seed=3",
     ("48406a2e1dd65e749dd8c0dad68ce869", "fed2d6c7f488854b178209831d4d01e4"));
    ("lru-k unbatched:colors=10,horizon=160,seed=3",
     ("57e4999934b5bd7c652015547aa6ca3b", "7a93b17af07becace67b5b627a790ddf"));
    ("landlord unbatched:colors=10,horizon=160,seed=3",
     ("d3334de0f5d45bc80b7d0ff34d864ab5", "6dec6fd7f3956c0cde789d3d9ac2a6c6"));
    ("dlru uniform:colors=40,load=0.9,horizon=96,seed=2",
     ("2534d56f2502f4a385c0f3a0913488f3", "dbd7494c547c0fe99299364a30121c91"));
    ("edf uniform:colors=40,load=0.9,horizon=96,seed=2",
     ("e26748b8a4456b003e46f5f32ffcfe4b", "82b84d1120e230ce9545ffc14fe6cbb3"));
    ("dlru-edf uniform:colors=40,load=0.9,horizon=96,seed=2",
     ("41e40b70e1f4e1fc917d08037c969813", "382876fd710d8c8438c78ab8d673a785"));
    ("seq-edf uniform:colors=40,load=0.9,horizon=96,seed=2",
     ("e1cd425ce2b111a0b9cf30496d0b6f9c", "23eca9b3aa84c821e12bd022d07ba0c8"));
    ("lru-k uniform:colors=40,load=0.9,horizon=96,seed=2",
     ("fff572eb72bdb6a0e4d9f5228749c89b", "e599f2633b3db6eff5788aa5cf1e5f56"));
    ("landlord uniform:colors=40,load=0.9,horizon=96,seed=2",
     ("ec2e5fed1482f888367208e9ed4c2b4e", "383c808ca4f722c31fe732e3a00f6250"));
  ]

let test_golden () =
  let actual = digests corpus in
  Alcotest.(check int) "corpus size" (List.length expected) (List.length actual);
  List.iter2
    (fun (key, (trace, ledger)) (key', (trace', ledger')) ->
      Alcotest.(check string) "entry" key key';
      Alcotest.(check string) ("trace digest: " ^ key) trace trace';
      Alcotest.(check string) ("ledger digest: " ^ key) ledger ledger')
    expected actual

let suite =
  [ ("golden", [ Alcotest.test_case "engine output digests" `Quick test_golden ]) ]
