(* Child processes, their scratch directories, and the /proc counters
   read from outside them.

   Every server, router and shard the benchmark starts is registered
   here. [cleanup] kills each with SIGKILL, reaps it, and removes the
   scratch directory; it runs on every exit path (normal return, failed
   check, exception, SIGINT/SIGTERM via [install_handlers]).
   [assert_no_children] then proves that nothing outlives the run. *)

type child = { pid : int; label : string }

let live : child list ref = ref []
let dirs : string list ref = ref []

(* All scratch paths are relative to the working directory (the
   checkout root): Unix socket paths must stay under 108 bytes however
   deep the checkout is. *)
let run_root = ".perfbench_run"

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* A fresh scratch directory, removed by [cleanup]. *)
let scratch_dir name =
  let dir =
    Filename.concat run_root (Printf.sprintf "%d-%s" (Unix.getpid ()) name)
  in
  remove_tree dir;
  mkdir_p dir;
  dirs := dir :: !dirs;
  dir

let register ~label pid =
  let child = { pid; label } in
  live := child :: !live;
  child

let spawn ~label argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process argv.(0) argv devnull devnull Unix.stderr)
  in
  register ~label pid

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let kill child =
  (try Unix.kill child.pid Sys.sigkill with Unix.Unix_error _ -> ());
  waitpid_retry child.pid;
  live := List.filter (fun c -> c.pid <> child.pid) !live

(* True while the child has not exited (it may still be starting). *)
let alive child =
  match Unix.waitpid [ Unix.WNOHANG ] child.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let remove_dir dir =
  (try remove_tree dir with Unix.Unix_error _ | Sys_error _ -> ());
  dirs := List.filter (( <> ) dir) !dirs

let cleanup () =
  List.iter kill !live;
  List.iter remove_dir !dirs;
  (try Unix.rmdir run_root with Unix.Unix_error _ -> ())

(* Processes whose parent is this one, read from /proc. *)
let proc_children () =
  let self = Unix.getpid () in
  Array.fold_left
    (fun acc entry ->
      match int_of_string_opt entry with
      | None -> acc
      | Some pid -> (
          match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid)
                  In_channel.input_all with
          | stat -> (
              (* "pid (comm) state ppid ...": comm may hold spaces. *)
              let rest =
                String.sub stat (String.rindex stat ')' + 2)
                  (String.length stat - String.rindex stat ')' - 2)
              in
              match String.split_on_char ' ' rest with
              | _state :: ppid :: _ when int_of_string_opt ppid = Some self ->
                  pid :: acc
              | _ -> acc)
          | exception Sys_error _ -> acc))
    [] (Sys.readdir "/proc")

(* After [cleanup]: no registered child, no unreaped child, no process
   whose parent is this one. Returns the violations found. *)
let assert_no_children () =
  let problems = ref [] in
  if !live <> [] then problems := "registered children still live" :: !problems;
  (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | 0, _ -> problems := "an unreaped child is still running" :: !problems
  | pid, _ -> problems := Printf.sprintf "child %d exited unreaped" pid :: !problems
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  List.iter
    (fun pid -> problems := Printf.sprintf "process %d outlived the run" pid :: !problems)
    (proc_children ());
  List.rev !problems

let install_handlers () =
  at_exit cleanup;
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)

(* ---- /proc counters ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* "key: value" lines of /proc/<pid>/status or /io. *)
let field text key =
  let prefix = key ^ ":" in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        let rest = String.sub line (String.length prefix)
            (String.length line - String.length prefix) in
        Scanf.sscanf_opt (String.trim rest) "%d" Fun.id
      else None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:0

type counters = {
  cpu_ns : int;  (** on-CPU time of every thread (schedstat) *)
  syscalls : int;  (** syscr + syscw *)
  wchar : int;  (** bytes passed to write-type syscalls *)
  ctx_switches : int;  (** voluntary + nonvoluntary, every thread *)
}

let zero = { cpu_ns = 0; syscalls = 0; wchar = 0; ctx_switches = 0 }

let add a b =
  {
    cpu_ns = a.cpu_ns + b.cpu_ns;
    syscalls = a.syscalls + b.syscalls;
    wchar = a.wchar + b.wchar;
    ctx_switches = a.ctx_switches + b.ctx_switches;
  }

let sub a b =
  {
    cpu_ns = a.cpu_ns - b.cpu_ns;
    syscalls = a.syscalls - b.syscalls;
    wchar = a.wchar - b.wchar;
    ctx_switches = a.ctx_switches - b.ctx_switches;
  }

let counters pid =
  let base = Printf.sprintf "/proc/%d" pid in
  let cpu_ns, ctx_switches =
    Array.fold_left
      (fun (cpu, ctx) tid ->
        let task = Printf.sprintf "%s/task/%s" base tid in
        match (read_file (task ^ "/schedstat"), read_file (task ^ "/status")) with
        | schedstat, status ->
            let on_cpu = Scanf.sscanf schedstat "%d" Fun.id in
            ( cpu + on_cpu,
              ctx + field status "voluntary_ctxt_switches"
              + field status "nonvoluntary_ctxt_switches" )
        | exception Sys_error _ -> (cpu, ctx) (* thread exited meanwhile *))
      (0, 0)
      (Sys.readdir (base ^ "/task"))
  in
  let io = read_file (base ^ "/io") in
  {
    cpu_ns;
    syscalls = field io "syscr" + field io "syscw";
    wchar = field io "wchar";
    ctx_switches;
  }

let sum_counters pids = List.fold_left (fun acc pid -> add acc (counters pid)) zero pids

(* Peak resident set (VmHWM) in KiB. *)
let vmhwm_kb pid = field (read_file (Printf.sprintf "/proc/%d/status" pid)) "VmHWM"
let self_vmhwm_kb () = field (read_file "/proc/self/status") "VmHWM"
