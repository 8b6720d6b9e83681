(* Connection-core regression tests for the poll-based serving layer:
   socket-steal refusal (a second server must not silently unlink a
   live server's Unix socket), fd hygiene in the accept->worker handoff
   (a raising handler never leaks the popped fd; a rejected push never
   signals), close-on-exec across [Shard]'s create_process children
   (an inherited socket would keep dead clients from ever seeing EOF),
   and the FD_SETSIZE-cliff churn test: >= 1024 concurrent connections
   with open/close churn, zero frame errors, and a flat fd table. *)

module Net = Rrs_server.Net
module Poll = Rrs_server.Poll
module Server = Rrs_server.Server
module Client = Rrs_server.Client
module Wire = Rrs_server.Wire
module Shard = Rrs_server.Shard

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* ---- Unix socket path stealing ---- *)

let test_live_socket_path_refused () =
  let dir = temp_dir "rrs_steal" in
  let path = Filename.concat dir "sock" in
  let fd, cleanup = Net.listen_socket (Net.Unix_socket path) in
  Alcotest.(check (option string)) "cleanup path" (Some path) cleanup;
  (* The path is live: a second bind must refuse, naming the conflict,
     and must leave the first listener's socket file in place. *)
  (match Net.listen_socket (Net.Unix_socket path) with
  | fd2, _ ->
      Unix.close fd2;
      Alcotest.fail "second listener stole a live socket path"
  | exception Failure message ->
      check_bool
        (Printf.sprintf "error names the conflict (%s)" message)
        true
        (let marker = "address in use by a live server" in
         let rec find i =
           if i + String.length marker > String.length message then false
           else
             String.sub message i (String.length marker) = marker
             || find (i + 1)
         in
         find 0));
  check_bool "socket file survived the refusal" true (Sys.file_exists path);
  (* Close without unlinking: the file is now stale (connects get
     ECONNREFUSED), and the next listener must clean and reuse it. *)
  Unix.close fd;
  check_bool "stale file left behind" true (Sys.file_exists path);
  let fd3, _ = Net.listen_socket (Net.Unix_socket path) in
  let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect probe (Unix.ADDR_UNIX path);
  Unix.close probe;
  Unix.close fd3;
  Sys.remove path

let test_second_server_refused () =
  let dir = temp_dir "rrs_steal2" in
  let address = Server.Unix_socket (Filename.concat dir "sock") in
  let config = { (Server.default_config address) with Server.domains = 2 } in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop ~drain:false server))
    (fun () ->
      (match Server.start config with
      | server2 ->
          ignore (Server.stop ~drain:false server2);
          Alcotest.fail "second server started on a live socket path"
      | exception Failure _ -> ());
      (* The first server must be completely unaffected by the refusal:
         its socket file is intact and it still answers. *)
      let client = Client.connect address in
      (match Client.call ~deadline_ms:5_000 client (Wire.Hello { client_version = Wire.version }) with
      | Ok (Wire.Hello_ok _) -> ()
      | Ok frame -> Alcotest.failf "unexpected reply: %s" (Wire.encode frame)
      | Error message -> Alcotest.failf "first server broken: %s" message);
      Client.close client)

(* ---- handoff queue and worker fd hygiene ---- *)

let test_handoff_push_closed_queues_nothing () =
  let q = Net.handoff_create 4 in
  Net.handoff_close q;
  let r, w = Unix.pipe () in
  check_bool "push on a closed queue is rejected" false (Net.handoff_push q r);
  (* Nothing was queued: a pop on the closed queue drains to None
     immediately instead of handing out the rejected fd. *)
  (match Net.handoff_pop q with
  | None -> ()
  | Some _ -> Alcotest.fail "rejected push left an fd in the queue");
  Unix.close r;
  Unix.close w

let test_worker_loop_closes_fd_when_serve_raises () =
  let q = Net.handoff_create 4 in
  let conns = Net.conn_table () in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  check_bool "push accepted" true (Net.handoff_push q a);
  Net.handoff_close q;
  (* The handler raises before ever closing its fd; the worker must
     close it anyway — otherwise every crashed connection leaks one
     descriptor until the process hits EMFILE. *)
  Net.worker_loop ~handoff:q ~conns ~worker:0
    ~serve:(fun ~worker:_ _fd -> failwith "handler bug before close");
  (match Unix.fstat a with
  | _ -> Alcotest.fail "raising handler leaked the connection fd"
  | exception Unix.Unix_error (Unix.EBADF, _, _) -> ());
  (* And the peer observes the close as EOF, not a hang. *)
  (match Poll.wait_readable ~timeout:5.0 b with
  | `Readable -> check "peer sees EOF" 0 (Unix.read b (Bytes.create 8) 0 8)
  | `Timeout -> Alcotest.fail "peer never saw the close");
  Unix.close b

(* ---- close-on-exec across Shard children ---- *)

(* Sockets the process holds beyond stdio. Fds 0-2 are inherited on
   purpose, and are sockets whenever the test binary's own stdio is. *)
let proc_socket_fds pid =
  let dir = Printf.sprintf "/proc/%d/fd" pid in
  match Sys.readdir dir with
  | entries ->
      Array.to_list entries
      |> List.filter (fun entry ->
             match int_of_string_opt entry with
             | Some fd -> fd > 2
             | None -> false)
      |> List.filter_map (fun entry ->
             match Unix.readlink (Filename.concat dir entry) with
             | target
               when String.length target >= 7
                    && String.sub target 0 7 = "socket:" ->
                 Some (entry ^ " -> " ^ target)
             | _ -> None
             | exception Unix.Unix_error _ -> None)
  | exception Sys_error _ -> []

let test_shard_children_inherit_no_sockets () =
  if not (Sys.file_exists "/proc/self/fd") then ()
    (* no procfs: the cloexec flags are still set, but unobservable *)
  else begin
    let dir = temp_dir "rrs_cloexec" in
    let address = Server.Unix_socket (Filename.concat dir "sock") in
    let server =
      Server.start { (Server.default_config address) with Server.domains = 2 }
    in
    let client = Client.connect address in
    (* One round trip so the server side of the connection exists before
       the child forks: listener, accepted fd, event-loop pipe — all of
       it is live right now. *)
    (match Client.call ~deadline_ms:5_000 client (Wire.Hello { client_version = Wire.version }) with
    | Ok (Wire.Hello_ok _) -> ()
    | _ -> Alcotest.fail "hello failed");
    (* A supervised shard restart is a [Unix.create_process] in this
       very process image; the stand-in child just sleeps. *)
    let shard =
      Shard.start ~base_backoff_ms:50
        [ { Shard.sp_label = "noop"; sp_argv = [| "/bin/sh"; "-c"; "sleep 30" |] } ]
    in
    Fun.protect
      ~finally:(fun () -> Shard.stop ~grace_s:2. shard)
      (fun () ->
        let pid = List.assoc "noop" (Shard.pids shard) in
        check_bool "child spawned" true (pid > 0);
        (* Between fork and exec the child legitimately holds copies of
           every fd; close-on-exec strips them at exec. Wait for that. *)
        let deadline = Unix.gettimeofday () +. 5. in
        let rec settle () =
          match proc_socket_fds pid with
          | [] -> []
          | leaked when Unix.gettimeofday () >= deadline -> leaked
          | _ ->
              Unix.sleepf 0.02;
              settle ()
        in
        Alcotest.(check (list string))
          "child holds no inherited sockets" [] (settle ());
        (* The payoff: kill the serving process's connections while the
           child lives on. The client must see EOF immediately — an
           inherited fd in the sleeper would hold the connection open
           for another 30 seconds. *)
        ignore (Server.stop ~drain:false server);
        let t0 = Unix.gettimeofday () in
        (match Client.read_reply ~deadline_ms:3_000 client with
        | Error "connection closed by server" -> ()
        | Ok frame ->
            Alcotest.failf "stopped server answered: %s" (Wire.encode frame)
        | Error message -> Alcotest.failf "expected EOF, got: %s" message);
        check_bool "EOF was prompt, not a deadline expiry" true
          (Unix.gettimeofday () -. t0 < 1.5);
        Client.close client)
  end

(* ---- the FD_SETSIZE cliff: >= 1024 concurrent connections ---- *)

let fd_table_size () = Array.length (Sys.readdir "/proc/self/fd")

let test_churn_beyond_fd_setsize () =
  let conns_wanted = 1100 in
  (* Each connection costs two fds in this process (client end + server
     end), plus the listener, wake pipe, test runner fds... *)
  let limit = Poll.raise_fd_limit ((2 * conns_wanted) + 256) in
  if limit < (2 * conns_wanted) + 128 || not (Sys.file_exists "/proc/self/fd")
  then ()
    (* fd limit pinned low in this sandbox; the CI churn smoke covers it *)
  else begin
    let dir = temp_dir "rrs_churn" in
    let address = Server.Unix_socket (Filename.concat dir "sock") in
    let server =
      Server.start { (Server.default_config address) with Server.domains = 2 }
    in
    let call client frame =
      match Client.call ~deadline_ms:10_000 client frame with
      | Ok (Wire.Error_frame { message }) ->
          Alcotest.failf "frame error under churn: %s" message
      | Ok frame -> frame
      | Error message -> Alcotest.failf "transport error under churn: %s" message
    in
    let control = Client.connect address in
    (match
       call control
         (Wire.Open
            { session = "churn"; policy = "dlru"; delta = 2;
              bounds = [| 2; 3 |]; n = 3; speed = 1; horizon = 0;
              queue_limit = 0; decl = None })
     with
    | Wire.Opened _ -> ()
    | frame -> Alcotest.failf "open: %s" (Wire.encode frame));
    let stats client =
      match call client (Wire.Stats { session = "churn" }) with
      | Wire.Stats_ok _ -> ()
      | frame -> Alcotest.failf "stats: %s" (Wire.encode frame)
    in
    (* Ramp: every connection is held open — at full ramp the server
       multiplexes 1101 live sockets, far past FD_SETSIZE — and each
       must answer a frame while all the others stay connected. *)
    let conns = Array.init conns_wanted (fun _ -> Client.connect address) in
    Array.iter stats conns;
    let at_full = fd_table_size () in
    check_bool
      (Printf.sprintf "fd table proves concurrency (%d fds)" at_full)
      true
      (at_full >= 2 * conns_wanted);
    (* Churn: close and replace swaths of connections; after each round
       the fd table must return exactly to its full-ramp size — any
       drift is a leak (or a double accounting) in the event loop. *)
    let churn_per_round = 128 in
    for round = 0 to 2 do
      for i = 0 to churn_per_round - 1 do
        let j = ((round * churn_per_round) + i) mod conns_wanted in
        Client.close conns.(j);
        conns.(j) <- Client.connect address;
        stats conns.(j)
      done;
      (* The event loop closes its half asynchronously; give it a
         bounded moment to settle before pinning the count. *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec settle () =
        if fd_table_size () = at_full then ()
        else if Unix.gettimeofday () >= deadline then ()
        else begin
          Unix.sleepf 0.01;
          settle ()
        end
      in
      settle ();
      check
        (Printf.sprintf "fd table flat after churn round %d" round)
        at_full (fd_table_size ())
    done;
    Array.iter Client.close conns;
    Client.close control;
    ignore (Server.stop ~drain:false server)
  end

let suite =
  [
    ( "net.listen",
      [
        Alcotest.test_case "live socket path is refused, stale reused" `Quick
          test_live_socket_path_refused;
        Alcotest.test_case "second server cannot steal the socket" `Quick
          test_second_server_refused;
      ] );
    ( "net.handoff",
      [
        Alcotest.test_case "push on a closed queue queues nothing" `Quick
          test_handoff_push_closed_queues_nothing;
        Alcotest.test_case "raising handler never leaks the fd" `Quick
          test_worker_loop_closes_fd_when_serve_raises;
      ] );
    ( "net.cloexec",
      [
        Alcotest.test_case "shard children inherit no sockets" `Quick
          test_shard_children_inherit_no_sockets;
      ] );
    ( "net.churn",
      [
        Alcotest.test_case ">= 1024 concurrent connections with churn" `Slow
          test_churn_beyond_fd_setsize;
      ] );
  ]
