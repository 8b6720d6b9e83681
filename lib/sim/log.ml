(** Library-wide log source. Quiet by default; the CLI's [--verbose]
    enables debug-level tracing of engine phases. Logging statements are
    lazy closures, so a disabled level costs one branch. *)

let src = Logs.Src.create "rrs" ~doc:"Reconfigurable resource scheduling"

include (val Logs.src_log src : Logs.LOG)

(** Whether debug messages are emitted: hot loops test it before
    building a message closure, which would allocate even when the level
    is off. *)
let debug_enabled () =
  match Logs.Src.level src with Some Logs.Debug -> true | _ -> false
