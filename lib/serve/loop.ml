module M = Telemetry.Metrics
module L = Telemetry.Log

type address = Unix_path of string | Tcp of int

type config = {
  address : address;
  control : string option;
  session : Session.config;
  max_sessions : int;
  idle_timeout : float;
  read_budget : int;
  health_max_lag : int;
  health_max_buffered : int;
  memory_budget : int option;
}

let default_read_budget = 64 * 1024

type ctl_conn = { ctl_fd : Unix.file_descr; ctl_buf : Buffer.t }

type t = {
  cfg : config;
  mutable listener : Unix.file_descr option;
  mutable ctl_listener : Unix.file_descr option;
  bound : string;  (** printable bound address *)
  reg : Registry.t;
  ctrs : Control.counters;
  mutable pending : Session.t list;  (** accepted, hello not yet complete *)
  mutable ctl_conns : ctl_conn list;
  mutable cursor : int;  (** round-robin rotation of session service *)
  mutable hot : bool;
      (** a session consumed its whole read budget last tick, so its
          socket likely still holds decodable frames: poll, don't sleep *)
  drain_flag : bool Atomic.t;
  mutable is_finished : bool;
  mutable code : int;
  mutable drain_res : Drain.result option;
  started : float;
  buf : bytes;
}

let registry t = t.reg
let counters t = t.ctrs
let finished t = t.is_finished
let exit_code t = t.code
let drain_result t = t.drain_res
let address_string t = t.bound
let request_drain t = Atomic.set t.drain_flag true

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let close t =
  (match t.listener with
  | Some fd ->
      t.listener <- None;
      close_fd fd;
      (match t.cfg.address with
      | Unix_path path -> unlink_quiet path
      | Tcp _ -> ())
  | None -> ());
  (match t.ctl_listener with
  | Some fd ->
      t.ctl_listener <- None;
      close_fd fd;
      Option.iter unlink_quiet t.cfg.control
  | None -> ());
  List.iter (fun c -> close_fd c.ctl_fd) t.ctl_conns;
  t.ctl_conns <- [];
  List.iter Session.close t.pending;
  t.pending <- []

let bind_listener address =
  match address with
  | Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         unlink_quiet path;
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 64;
         Unix.set_nonblock fd;
         Ok (fd, "unix:" ^ path)
       with Unix.Unix_error (e, fn, _) ->
         close_fd fd;
         Error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message e)))
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
         Unix.listen fd 64;
         Unix.set_nonblock fd;
         let bound_port =
           match Unix.getsockname fd with
           | Unix.ADDR_INET (_, p) -> p
           | _ -> port
         in
         Ok (fd, Printf.sprintf "tcp:%d" bound_port)
       with Unix.Unix_error (e, fn, _) ->
         close_fd fd;
         Error (Printf.sprintf "tcp:%d: %s: %s" port fn (Unix.error_message e)))

let create cfg =
  match bind_listener cfg.address with
  | Error _ as e -> e
  | Ok (listener, bound) -> (
      let ctl =
        match cfg.control with
        | None -> Ok None
        | Some path -> (
            match bind_listener (Unix_path path) with
            | Ok (fd, _) -> Ok (Some fd)
            | Error msg ->
                close_fd listener;
                (match cfg.address with
                | Unix_path p -> unlink_quiet p
                | Tcp _ -> ());
                Error msg)
      in
      match ctl with
      | Error msg -> Error msg
      | Ok ctl_listener ->
          Ok
            { cfg;
              listener = Some listener;
              ctl_listener;
              bound;
              reg =
                Registry.create ~max_sessions:cfg.max_sessions
                  ~idle_timeout:cfg.idle_timeout ();
              ctrs = Control.fresh_counters ();
              pending = [];
              ctl_conns = [];
              cursor = 0;
              hot = false;
              drain_flag = Atomic.make false;
              is_finished = false;
              code = 0;
              drain_res = None;
              started = cfg.session.Session.now ();
              buf = Bytes.create (max 1 cfg.read_budget) })

let view t =
  { Control.v_registry = t.reg;
    v_counters = t.ctrs;
    v_uptime = t.cfg.session.Session.now () -. t.started;
    v_now = t.cfg.session.Session.now ();
    v_draining = Atomic.get t.drain_flag;
    v_max_lag = t.cfg.health_max_lag;
    v_max_buffered = t.cfg.health_max_buffered;
    v_memory_budget = t.cfg.memory_budget }

(* {1 Bookkeeping} *)

(* The active/peak gauges themselves live in the registry via
   [Control.sync]; here only the plain peak field is kept current, so
   an intra-tick spike is never lost before the next sync. *)
let update_session_gauges t =
  let active = Registry.connected_count t.reg + List.length t.pending in
  t.ctrs.Control.peak_sessions <- max t.ctrs.Control.peak_sessions active

let sync_metrics t =
  if M.enabled () then
    Control.sync ~registry:t.reg ~counters:t.ctrs
      ~pending:(List.length t.pending)
      ~now:(t.cfg.session.Session.now ())

(* A session left the registry's live set (finished); roll its event
   count into the daemon totals so throughput survives the idle sweep. *)
let note_finished t s =
  ignore s;
  update_session_gauges t

(* {1 Accepting} *)

let polite_reject t fd reason =
  t.ctrs.Control.rejects <- t.ctrs.Control.rejects + 1;
  L.warn ~event:"reject" reason;
  let line = Bytes.of_string (Printf.sprintf "reject %s\n" reason) in
  (try ignore (Unix.write fd line 0 (Bytes.length line))
   with Unix.Unix_error _ -> ());
  close_fd fd

(* Admission control: past the global memory high-water, new tenants
   are turned away at the door — the resident sessions keep their
   budgets and the daemon never grows toward the OOM killer. *)
let over_memory_budget t =
  match t.cfg.memory_budget with
  | None -> false
  | Some budget -> Control.mem_bytes t.reg > budget

let accept_sessions t =
  match t.listener with
  | None -> ()
  | Some listener ->
      let rec go budget =
        if budget <= 0 then ()
        else
          match Unix.accept listener with
          | fd, _ ->
              Unix.set_nonblock fd;
              if not (Registry.has_capacity t.reg ~pending:(List.length t.pending))
              then polite_reject t fd "server full"
              else if over_memory_budget t then
                polite_reject t fd "server busy"
              else begin
                t.ctrs.Control.accepts <- t.ctrs.Control.accepts + 1;
                L.info ~event:"accept"
                  ~fields:[ ("addr", t.bound) ]
                  "connection accepted";
                t.pending <- Session.create t.cfg.session fd :: t.pending;
                update_session_gauges t
              end;
              go (budget - 1)
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go budget
          | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> go (budget - 1)
      in
      go 32

let accept_control t =
  match t.ctl_listener with
  | None -> ()
  | Some listener -> (
      match Unix.accept listener with
      | fd, _ ->
          Unix.set_nonblock fd;
          t.ctl_conns <- { ctl_fd = fd; ctl_buf = Buffer.create 64 } :: t.ctl_conns
      | exception Unix.Unix_error _ -> ())

(* {1 Handshake arbitration} *)

let try_resume_from_disk t s ~sid ~rest =
  match Session.checkpoint_path t.cfg.session sid with
  | None -> Session.start_fresh s ~id:sid ~rest
  | Some path ->
      if not (Sys.file_exists path) then Session.start_fresh s ~id:sid ~rest
      else begin
        match Jmpax.Checkpoint.read path with
        | Error e ->
            L.warn ~sid ~event:"checkpoint_invalid"
              ~fields:[ ("path", path) ]
              (Printf.sprintf "unreadable (%s); starting fresh"
                 (Jmpax.Checkpoint.error_to_string e));
            Session.start_fresh s ~id:sid ~rest
        | Ok ck -> (
            match Jmpax.Checkpoint.validate ~spec:t.cfg.session.Session.spec ck with
            | Error e ->
                L.warn ~sid ~event:"checkpoint_invalid"
                  ~fields:[ ("path", path) ]
                  (Printf.sprintf "rejected (%s); starting fresh"
                     (Jmpax.Checkpoint.error_to_string e));
                Session.start_fresh s ~id:sid ~rest
            | Ok () -> (
                match Session.start_resume_checkpoint s ~id:sid ~ck ~rest with
                | outcome ->
                    t.ctrs.Control.resumes <- t.ctrs.Control.resumes + 1;
                    L.info ~sid ~event:"resume"
                      ~fields:[ ("from", "checkpoint"); ("path", path) ]
                      "";
                    outcome
                | exception Invalid_argument msg ->
                    L.warn ~sid ~event:"checkpoint_invalid"
                      ~fields:[ ("path", path) ]
                      (Printf.sprintf "restore failed (%s); starting fresh" msg);
                    Session.start_fresh s ~id:sid ~rest))
      end

(* [s] is a pending connection whose hello just completed; decide its
   fate and return the session now owning the connection (if any) plus
   the outcome of feeding the post-hello bytes. *)
let complete_handshake t s ~sid ~fp ~rest =
  let refuse reason =
    t.ctrs.Control.rejects <- t.ctrs.Control.rejects + 1;
    Session.reject s reason;
    (None, Session.Finished)
  in
  if not (Session.valid_id sid) then
    refuse "bad session id (want [A-Za-z0-9._-]{1,64})"
  else if fp <> "-" && fp <> t.cfg.session.Session.spec_fp then
    refuse
      (Printf.sprintf "spec fingerprint mismatch (server runs %s)"
         t.cfg.session.Session.spec_fp)
  else
    match Registry.find t.reg sid with
    | Some live when Session.connected live ->
        refuse "session busy (already connected)"
    | Some parked when Session.state parked = Session.Disconnected ->
        let outcome = Session.adopt parked ~from:s ~rest in
        t.ctrs.Control.resumes <- t.ctrs.Control.resumes + 1;
        L.info ~sid ~event:"resume" ~fields:[ ("from", "memory") ] "";
        (Some parked, outcome)
    | Some _finished -> refuse "session already completed"
    | None -> (
        let outcome = try_resume_from_disk t s ~sid ~rest in
        match Session.state s with
        | Session.Failed when Session.id s = "" ->
            (* Rejected before registration. *)
            (None, outcome)
        | _ -> (
            match Registry.add t.reg s with
            | Ok () -> (Some s, outcome)
            | Error msg -> refuse msg))

(* {1 Servicing} *)

(* Drain up to one read budget from the session's socket, in as many
   short reads as it takes: when the writer dribbles, several reads per
   tick amortize the select round-trip instead of paying it per chunk.
   The budget still bounds what one session can consume per tick, so
   the round-robin fairness story is unchanged.  Returns [true] when
   the whole budget was consumed — the kernel buffer then likely still
   holds decodable frames, and the caller should poll rather than sleep
   on its next select. *)
let service_session t s =
  let budget = min t.cfg.read_budget (Bytes.length t.buf) in
  let rec go consumed =
    if consumed >= budget then consumed
    else
      match Session.fd s with
      | None -> consumed
      | Some fd -> (
          let n =
            match Unix.read fd t.buf 0 (budget - consumed) with
            | n -> n
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> -1
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> -1
            | exception Unix.Unix_error _ -> 0
          in
          if n = 0 then begin
            let was_pending = List.memq s t.pending in
            (match Session.on_eof s with
            | Session.Continue ->
                if Session.state s = Session.Disconnected then begin
                  t.ctrs.Control.disconnects <- t.ctrs.Control.disconnects + 1;
                  L.info ~sid:(Session.id s) ~event:"disconnect"
                    ~fields:[ ("events", string_of_int (Session.events s)) ]
                    "writer vanished mid-stream"
                end
            | Session.Finished -> note_finished t s
            | Session.Hello _ -> ());
            if was_pending then
              t.pending <- List.filter (fun p -> not (p == s)) t.pending;
            update_session_gauges t;
            consumed
          end
          else if n < 0 then consumed
          else begin
            let data = Bytes.sub_string t.buf 0 n in
            match Session.on_bytes s data with
            | Session.Continue -> go (consumed + n)
            | Session.Finished ->
                note_finished t s;
                consumed + n
            | Session.Hello { id = sid; fp; rest } ->
                t.pending <- List.filter (fun p -> not (p == s)) t.pending;
                let owner, outcome = complete_handshake t s ~sid ~fp ~rest in
                (match (owner, outcome) with
                | Some o, Session.Finished -> note_finished t o
                | _ -> ());
                update_session_gauges t;
                (* Ownership may just have moved to an adopted session;
                   leave further reads to the next tick. *)
                consumed + n
          end)
  in
  go 0 >= budget

let service_control t c =
  let chunk = Bytes.create 256 in
  let n =
    match Unix.read c.ctl_fd chunk 0 256 with
    | n -> n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> -1
    | exception Unix.Unix_error _ -> 0
  in
  if n = 0 then begin
    close_fd c.ctl_fd;
    t.ctl_conns <- List.filter (fun x -> not (x == c)) t.ctl_conns
  end
  else if n > 0 then begin
    Buffer.add_subbytes c.ctl_buf chunk 0 n;
    let text = Buffer.contents c.ctl_buf in
    match String.index_opt text '\n' with
    | None ->
        if Buffer.length c.ctl_buf > 1024 then begin
          close_fd c.ctl_fd;
          t.ctl_conns <- List.filter (fun x -> not (x == c)) t.ctl_conns
        end
    | Some nl ->
        let line = String.sub text 0 nl in
        let reply = Control.handle_request (view t) line in
        let data = Bytes.of_string reply in
        let rec send pos =
          if pos < Bytes.length data then
            match Unix.write c.ctl_fd data pos (Bytes.length data - pos) with
            | n -> send (pos + n)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> send pos
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
                match Unix.select [] [ c.ctl_fd ] [] 1.0 with
                | _, [ _ ], _ -> send pos
                | _ -> ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> send pos)
            | exception Unix.Unix_error _ -> ()
        in
        send 0;
        close_fd c.ctl_fd;
        t.ctl_conns <- List.filter (fun x -> not (x == c)) t.ctl_conns
  end

(* {1 Drain} *)

let do_drain t =
  if not t.is_finished then begin
    L.info ~event:"drain"
      ~fields:
        [ ("live", string_of_int (Registry.connected_count t.reg)) ]
      "drain requested";
    (* Stop accepting first: the drain must not race new tenants. *)
    close t;
    let res = Drain.run ~registry:t.reg ~now:t.cfg.session.Session.now () in
    t.drain_res <- Some res;
    t.code <- Drain.exit_code res;
    t.is_finished <- true;
    sync_metrics t;
    L.info ~event:"drain"
      ~fields:
        [ ("sessions", string_of_int res.Drain.dr_sessions);
          ("checkpointed", string_of_int res.Drain.dr_checkpointed);
          ("failed", string_of_int (List.length res.Drain.dr_failed));
          ("ms", Printf.sprintf "%.0f" (res.Drain.dr_duration *. 1000.0)) ]
      "drain complete"
  end

(* {1 The tick} *)

(* Rotate [l] left by [n]: the round-robin service order. *)
let rotate n l =
  let len = List.length l in
  if len = 0 then l
  else begin
    let n = n mod len in
    let rec split i acc = function
      | rest when i = 0 -> rest @ List.rev acc
      | x :: rest -> split (i - 1) (x :: acc) rest
      | [] -> List.rev acc
    in
    split n [] l
  end

let tick ?(timeout = 0.25) t =
  if Atomic.get t.drain_flag then do_drain t
  else begin
    (* A saturated session left decodable frames behind last tick: poll
       instead of sleeping so they are consumed at once. *)
    let timeout = if t.hot then 0.0 else timeout in
    t.hot <- false;
    let session_fds =
      List.filter_map
        (fun s -> Option.map (fun fd -> (fd, s)) (Session.fd s))
        (t.pending @ Registry.all t.reg)
    in
    let read_fds =
      Option.to_list t.listener
      @ Option.to_list t.ctl_listener
      @ List.map (fun c -> c.ctl_fd) t.ctl_conns
      @ List.map fst session_fds
    in
    match Unix.select read_fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
    | ready, _, _ ->
        let is_ready fd = List.memq fd ready in
        (match t.listener with
        | Some fd when is_ready fd -> accept_sessions t
        | _ -> ());
        (match t.ctl_listener with
        | Some fd when is_ready fd -> accept_control t
        | _ -> ());
        List.iter
          (fun c -> if is_ready c.ctl_fd then service_control t c)
          t.ctl_conns;
        (* Round-robin: each readable session gets one read budget per
           tick, serviced in rotated order so a firehose writer cannot
           push its siblings to the end of every tick. *)
        let ready_sessions =
          List.filter (fun (fd, _) -> is_ready fd) session_fds
        in
        t.cursor <- t.cursor + 1;
        List.iter
          (fun (_, s) -> if service_session t s then t.hot <- true)
          (rotate t.cursor ready_sessions);
        let evicted =
          Registry.sweep_idle t.reg ~now:(t.cfg.session.Session.now ())
        in
        if evicted <> [] then begin
          t.ctrs.Control.evictions <-
            t.ctrs.Control.evictions + List.length evicted;
          List.iter
            (fun s ->
              t.ctrs.Control.events_finished <-
                t.ctrs.Control.events_finished + Session.events s)
            evicted;
          update_session_gauges t
        end;
        (* Mirror the control counters into the registry every tick, so
           a scrape between ticks never sees a stale window or a
           counter behind the stats rollup. *)
        sync_metrics t;
        if Atomic.get t.drain_flag then do_drain t
  end

let run t =
  while not t.is_finished do
    tick t
  done;
  t.code
