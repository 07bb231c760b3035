(* The serve front end: a forked [Serve.Loop] daemon, and a closed-loop
   load generator that drives it from this one process, one thread,
   over a fixed number of connections.

   Each connection runs one session at a time: hello, wait for the ack,
   replay the whole wire stream, wait for the verdict line, close — and
   only then takes the next session.  A slow daemon therefore receives
   less load; nothing queues outside it. *)

type kind = Normal | Hog

type job = { sid : string; payload : string; messages : int; kind : kind }

type session = {
  job : job;
  verdict : (string, string) result;  (** the predictive verdict line, or why none came *)
  latency : float;  (** hello sent -> verdict line read, seconds *)
  lag : float;  (** last payload byte written -> verdict line read *)
}

(* {1 The daemon} *)

type t = {
  pid : int;
  sock : string;
  calib : Unix.file_descr;  (** the daemon's calibration kernel times, one per line *)
}

(* [sock] and [checkpoint_dir] are relative to the current directory, so
   the socket path stays short whatever the checkout's location. *)
let spawn ~sock ~checkpoint_dir ~log ~(session : Serve.Session.config) =
  flush stdout;
  flush stderr;
  let calib, calib_out = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 -> (
      Unix.close calib;
      (* The daemon's own speed: on SIGUSR1 it runs the calibration
         kernel ([Calib]) on its own core and reports the time. *)
      Sys.set_signal Sys.sigusr1
        (Sys.Signal_handle
           (fun _ ->
             let line = Printf.sprintf "%.17g\n" (Calib.kernel ()) in
             ignore (Unix.write_substring calib_out line 0 (String.length line))));
      (* [jmpax serve] defaults: live metrics, info-level structured logs
         (to a file here, as an operator would), control socket at
         PATH.ctl, 1024 sessions, 300 s idle timeout. *)
      let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      Unix.dup2 fd Unix.stderr;
      Unix.close fd;
      Telemetry.Metrics.enable ();
      Telemetry.Log.set_level Telemetry.Log.Info;
      let config =
        { Serve.Loop.address = Serve.Loop.Unix_path sock;
          control = Some (sock ^ ".ctl");
          session = { session with Serve.Session.checkpoint_dir = Some checkpoint_dir };
          max_sessions = 1024;
          idle_timeout = 300.0;
          read_budget = Serve.Loop.default_read_budget;
          health_max_lag = 0;
          health_max_buffered = 0;
          memory_budget = None }
      in
      match Serve.Loop.create config with
      | Error msg ->
          prerr_endline ("ledger daemon: " ^ msg);
          Stdlib.exit 2
      | Ok t ->
          Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Serve.Loop.request_drain t));
          Stdlib.exit (Serve.Loop.run t))
  | pid ->
      Unix.close calib_out;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline do
        ignore (Unix.select [] [] [] 0.005)
      done;
      if not (Sys.file_exists sock) then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Unix.close calib;
        failwith "daemon never bound its socket"
      end;
      { pid; sock; calib }

(* One calibration kernel run inside the daemon, in milliseconds.  Taken
   while no session is in flight, so it slows none. *)
let calibrate t =
  Unix.kill t.pid Sys.sigusr1;
  let buf = Buffer.create 32 and byte = Bytes.create 1 in
  let rec line () =
    match Unix.read t.calib byte 0 1 with
    | 0 -> failwith "daemon exited during calibration"
    | _ when Bytes.get byte 0 = '\n' -> Buffer.contents buf
    | _ ->
        Buffer.add_bytes buf byte;
        line ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> line ()
  in
  float_of_string (line ())

(* SIGTERM, wait for the drain; the daemon's exit code. *)
let stop t =
  Unix.close t.calib;
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] t.pid with
    | _, Unix.WEXITED c -> c
    | _ -> 255
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* High-water resident set of a process, in MiB, from the kernel's own
   accounting. *)
let vm_hwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* {1 The closed-loop writers} *)

type phase = Await_ack | Writing of int | Await_verdict

type conn = {
  fd : Unix.file_descr;
  cjob : job;
  mutable phase : phase;
  inbuf : Buffer.t;
  started : float;
  mutable last_byte : float;
}

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let verdict_marker = "predictive verdict"

let open_conn t ~fp job =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let started = Unix.gettimeofday () in
  Unix.connect fd (Unix.ADDR_UNIX t.sock);
  let hello = Printf.sprintf "jmpax-serve 1 %s %s\n" job.sid fp in
  ignore (Unix.write_substring fd hello 0 (String.length hello));
  Unix.set_nonblock fd;
  { fd; cjob = job; phase = Await_ack; inbuf = Buffer.create 256; started; last_byte = started }

(* Complete lines received so far; the unterminated tail stays buffered. *)
let take_lines c =
  let text = Buffer.contents c.inbuf in
  match String.rindex_opt text '\n' with
  | None -> []
  | Some i ->
      Buffer.clear c.inbuf;
      Buffer.add_string c.inbuf (String.sub text (i + 1) (String.length text - i - 1));
      String.split_on_char '\n' (String.sub text 0 i)

let chunk = 64 * 1024

(* Keep [connections] sessions in flight, each connection taking its
   next session from [next] as soon as its previous one has its
   verdict, until [next] runs dry; sessions in completion order, each
   with its completion time.  Gives up (raising) after [stall] seconds
   without progress, so a wedged daemon cannot hang the benchmark. *)
let connections = 2
let stall = 60.0

let closed_loop t ~fp next =
  let live = ref [] and results = ref [] and dry = ref false in
  let finish c verdict =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    live := List.filter (fun x -> x != c) !live;
    let now = Unix.gettimeofday () in
    results :=
      ( now,
        { job = c.cjob; verdict; latency = now -. c.started; lag = now -. c.last_byte } )
      :: !results
  in
  let refill () =
    while List.length !live < connections && not !dry do
      match next () with
      | Some job -> live := !live @ [ open_conn t ~fp job ]
      | None -> dry := true
    done
  in
  let buf = Bytes.create 4096 in
  let on_readable c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> finish c (Error "connection closed before the verdict line")
    | n -> (
        Buffer.add_subbytes c.inbuf buf 0 n;
        let rec lines = function
          | [] -> ()
          | line :: rest -> (
              match c.phase with
              | Await_ack when String.length line >= 3 && String.sub line 0 3 = "ok " ->
                  c.phase <- Writing 0;
                  lines rest
              | Await_ack -> finish c (Error ("handshake refused: " ^ line))
              | _ when String.length line >= 6 && String.sub line 0 6 = "error " ->
                  finish c (Error line)
              | _ when contains ~needle:verdict_marker line -> finish c (Ok line)
              | _ -> lines rest)
        in
        lines (take_lines c))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> finish c (Error (Unix.error_message e))
  in
  let on_writable c pos =
    let len = String.length c.cjob.payload in
    match Unix.single_write_substring c.fd c.cjob.payload pos (min chunk (len - pos)) with
    | n ->
        let pos = pos + n in
        if pos >= len then begin
          c.last_byte <- Unix.gettimeofday ();
          c.phase <- Await_verdict
        end
        else c.phase <- Writing pos
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> finish c (Error (Unix.error_message e))
  in
  refill ();
  let last_progress = ref (Unix.gettimeofday ()) in
  while !live <> [] do
    let readers = List.map (fun c -> c.fd) !live in
    let writers =
      List.filter_map (fun c -> match c.phase with Writing _ -> Some c.fd | _ -> None) !live
    in
    let r, w, _ =
      try Unix.select readers writers [] 1.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if r = [] && w = [] then begin
      if Unix.gettimeofday () -. !last_progress > stall then
        failwith "serve load: no progress from the daemon"
    end
    else last_progress := Unix.gettimeofday ();
    List.iter
      (fun c ->
        if List.memq c !live then begin
          (match c.phase with
          | Writing pos when List.mem c.fd w -> on_writable c pos
          | _ -> ());
          if List.memq c !live && List.mem c.fd r then on_readable c
        end)
      !live;
    refill ()
  done;
  List.rev !results
