(* The multi-tenant observer daemon: registry lifecycle, the handshake,
   fair scheduling under a firehose, per-session backpressure isolation,
   SIGTERM drain with per-session checkpoints, and resume parity — a
   drained-and-resumed session's verdict is byte-identical to never
   having been interrupted.

   Everything runs in one process with no threads and no signals: the
   daemon's [Serve.Loop.tick] is public and its clock injectable, so the
   tests alternate nonblocking client I/O with explicit ticks. *)

module W = Jmpax.Wire
module L = Serve.Loop
module S = Serve.Session

let msg ?(eid = 0) tid var value clock =
  Trace.Message.make ~eid ~tid ~var ~value ~mvc:(Vclock.of_list clock)

(* {1 Fixtures} *)

(* The paper's landing example, recorded through the full pipeline so
   stream-path parity is meaningful. *)
let landing_doc, landing_expected =
  let program = Tml.Programs.landing_bounded in
  let spec = Pastltl.Formula.landing_spec in
  let config =
    Jmpax.Config.default ()
    |> Jmpax.Config.with_sched (Tml.Sched.of_script Tml.Programs.landing_observed)
  in
  let out = Jmpax.Pipeline.check ~config ~spec program in
  let relevant = out.Jmpax.Pipeline.relevant_vars in
  let header =
    { W.nthreads = List.length program.Tml.Ast.threads;
      init =
        List.filter (fun (x, _) -> List.mem x relevant) program.Tml.Ast.shared }
  in
  let doc = W.Framed3.encode header out.Jmpax.Pipeline.run.Tml.Vm.messages in
  (doc, Jmpax.Pipeline.verdict_line (Jmpax.Pipeline.predicted_violation out))

let landing_spec = Pastltl.Formula.landing_spec
let landing_fp = Jmpax.Checkpoint.fingerprint landing_spec

(* A long single-thread chain: linear analyzer cost, arbitrary size. *)
let chain_doc n =
  let header = { W.nthreads = 1; init = [ ("x", 1) ] } in
  let ms = List.init n (fun i -> msg ~eid:i 0 "x" 1 [ i + 1 ]) in
  W.Framed3.encode header ms

(* The adversarial tenant of the budget tests: six threads whose
   messages carry only their own vector-clock component, so every
   message is concurrent with every message of every other thread and
   the frontier holds C(level+5,5) cuts per level — past any small
   cut budget within a few delivered rounds. *)
let exploding_nthreads = 6
let exploding_per_thread = 10

let exploding_messages () =
  let ms = ref [] in
  for i = exploding_per_thread - 1 downto 0 do
    for t = exploding_nthreads - 1 downto 0 do
      let cl =
        List.init exploding_nthreads (fun k -> if k = t then i + 1 else 0)
      in
      ms := msg ~eid:((i * exploding_nthreads) + t) t "x" i cl :: !ms
    done
  done;
  !ms

let exploding_header = { W.nthreads = exploding_nthreads; init = [ ("x", 0) ] }
let exploding_doc () = W.Framed3.encode exploding_header (exploding_messages ())

(* The same bytes minus the end-of-stream frames, for tests that need
   the exploding session still live (e.g. to drain it mid-flight). *)
let exploding_prefix () =
  let full = exploding_doc () in
  let ends =
    String.concat "" (List.init exploding_nthreads W.Framed3.encode_end)
  in
  String.sub full 0 (String.length full - String.length ends)

(* A single-thread stream delivered in reverse: every message but the
   last is out of order, the backpressure worst case. *)
let reversed_doc n =
  let header = { W.nthreads = 1; init = [ ("x", 0) ] } in
  let ms = List.init n (fun i -> msg 0 "x" (i + 1) [ i + 1 ]) in
  W.Framed3.encode header (List.rev ms)

let true_fp = Jmpax.Checkpoint.fingerprint Pastltl.Formula.True

(* A header frame followed by message frames from one encoder (the
   tests below send them without a preamble, in pieces). *)
let frames header ms =
  let enc = W.Framed3.encoder header in
  W.Framed3.encode_header header
  :: List.map (W.Framed3.encode_message enc) ms

(* {1 The in-process harness} *)

(* The daemon drops a budget-breaching session mid-stream; without this
   the writer's next [send] dies of SIGPIPE instead of seeing [EPIPE]
   (the CLI front end ignores the signal the same way). *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let clock = ref 0.0

let temp_dir () =
  let path = Filename.temp_file "jmpax_serve" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let default_session ?(spec = Pastltl.Formula.True)
    ?(engines = Predict.Engine.default_kinds) ?max_buffered
    ?checkpoint_dir ?(recovery = Jmpax.Config.Fail)
    ?(budget = Jmpax.Budget.unlimited) ?(on_overload = Jmpax.Budget.Fail) () =
  { S.spec;
    spec_fp = Jmpax.Checkpoint.fingerprint spec;
    engines;
    max_buffered;
    jobs = 1;
    recovery;
    checkpoint_dir;
    checkpoint_every = 1;
    budget;
    on_overload;
    now = (fun () -> !clock) }

let with_server ?spec ?engines ?max_buffered ?checkpoint_dir ?recovery ?budget
    ?on_overload ?memory_budget
    ?(max_sessions = 16) ?(idle_timeout = 0.0) ?(read_budget = L.default_read_budget)
    ?(health_max_lag = 0) ?(health_max_buffered = 0)
    f =
  clock := 0.0;
  Telemetry.Log.set_sink ignore;
  let dir = temp_dir () in
  let sock = Filename.concat dir "serve.sock" in
  let config =
    { L.address = L.Unix_path sock;
      control = Some (sock ^ ".ctl");
      session =
        default_session ?spec ?engines ?max_buffered ?checkpoint_dir ?recovery
          ?budget ?on_overload ();
      max_sessions;
      idle_timeout;
      read_budget;
      health_max_lag;
      health_max_buffered;
      memory_budget }
  in
  match L.create config with
  | Error msg -> Alcotest.failf "server: %s" msg
  | Ok t ->
      Fun.protect
        ~finally:(fun () ->
          L.close t;
          rm_rf dir)
        (fun () -> f t sock)

let tick t = L.tick ~timeout:0.01 t
let ticks ?(n = 5) t = for _ = 1 to n do tick t done

(* Nonblocking client socket; the server only progresses on [tick]. *)
let connect path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  Unix.set_nonblock sock;
  sock

let send t sock data =
  let data = Bytes.of_string data in
  let len = Bytes.length data in
  let pos = ref 0 in
  let stall = ref 0 in
  while !pos < len && !stall < 1000 do
    match Unix.write sock data !pos (len - !pos) with
    | n ->
        pos := !pos + n;
        tick t
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        incr stall;
        tick t
    | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
        (* Receiver hung up (e.g. it was disconnected for backpressure):
           the remaining bytes have nowhere to go. *)
        stall := 1000
  done

(* Read one '\n'-terminated line, ticking the server while waiting.
   [None] on EOF before any byte. *)
let recv_line t sock =
  let buf = Buffer.create 64 in
  let byte = Bytes.create 1 in
  let rec go tries =
    if tries = 0 then
      Alcotest.failf "recv_line: no line after %d ticks (got %S)" 2000
        (Buffer.contents buf)
    else
      match Unix.read sock byte 0 1 with
      | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
      | _ ->
          if Bytes.get byte 0 = '\n' then Some (Buffer.contents buf)
          else begin
            Buffer.add_char buf (Bytes.get byte 0);
            go tries
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          tick t;
          go (tries - 1)
  in
  go 2000

let recv_eof t sock =
  let byte = Bytes.create 1 in
  let rec go tries =
    if tries = 0 then Alcotest.fail "recv_eof: connection still open"
    else
      match Unix.read sock byte 0 1 with
      | 0 -> ()
      | _ -> go tries
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          tick t;
          go (tries - 1)
  in
  go 2000

let hello ?(version = "1") id fp = Printf.sprintf "jmpax-serve %s %s %s\n" version id fp

(* Handshake a fresh client: connect, hello, expect [ok 0]. *)
let open_session t sock_path ~id ~fp =
  let c = connect sock_path in
  send t c (hello id fp);
  (match recv_line t c with
  | Some ack when String.length ack >= 2 && String.sub ack 0 2 = "ok" -> ()
  | Some other -> Alcotest.failf "expected ok ack, got %S" other
  | None -> Alcotest.fail "no ack");
  c

(* {1 Registry unit tests} *)

let mk_session ?(cfg = default_session ()) () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  (S.create cfg a, b)

let test_registry_lifecycle () =
  let reg = Serve.Registry.create ~max_sessions:2 ~idle_timeout:10.0 () in
  let s1, peer1 = mk_session () in
  (match Serve.Registry.add reg s1 with
  | Error e -> Alcotest.(check string) "no id yet" "session has no id" e
  | Ok () -> Alcotest.fail "added a session without an id");
  ignore (S.start_fresh s1 ~id:"a" ~rest:"");
  Alcotest.(check bool) "add" true (Serve.Registry.add reg s1 = Ok ());
  (match Serve.Registry.add reg s1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate id accepted");
  Alcotest.(check bool) "find" true
    (match Serve.Registry.find reg "a" with Some s -> s == s1 | None -> false);
  Alcotest.(check bool) "mem" true (Serve.Registry.mem reg "a");
  Alcotest.(check int) "connected" 1 (Serve.Registry.connected_count reg);
  Alcotest.(check bool) "capacity with 0 pending" true
    (Serve.Registry.has_capacity reg ~pending:0);
  Alcotest.(check bool) "no capacity with 1 pending" false
    (Serve.Registry.has_capacity reg ~pending:1);
  Serve.Registry.remove reg "a";
  Alcotest.(check bool) "removed" false (Serve.Registry.mem reg "a");
  Unix.close peer1;
  S.close s1

let test_registry_idle_sweep () =
  clock := 0.0;
  let reg = Serve.Registry.create ~max_sessions:8 ~idle_timeout:5.0 () in
  let s, peer = mk_session () in
  ignore (S.start_fresh s ~id:"idle" ~rest:"");
  Alcotest.(check bool) "add" true (Serve.Registry.add reg s = Ok ());
  Alcotest.(check (list string)) "young session stays" []
    (List.map S.id (Serve.Registry.sweep_idle reg ~now:4.0));
  let evicted = Serve.Registry.sweep_idle reg ~now:6.0 in
  Alcotest.(check (list string)) "stale session evicted" [ "idle" ]
    (List.map S.id evicted);
  Alcotest.(check bool) "gone" false (Serve.Registry.mem reg "idle");
  Alcotest.(check bool) "socket closed by eviction" false (S.connected s);
  Unix.close peer

(* {1 Handshake} *)

let test_handshake_fresh_and_verdict () =
  with_server ~spec:landing_spec (fun t sock ->
      let c = open_session t sock ~id:"w1" ~fp:landing_fp in
      send t c landing_doc;
      (match recv_line t c with
      | Some verdict ->
          Alcotest.(check string) "verdict parity with jmpax check"
            landing_expected verdict
      | None -> Alcotest.fail "no verdict line");
      recv_eof t c;
      Unix.close c;
      let s = Option.get (Serve.Registry.find (L.registry t) "w1") in
      Alcotest.(check bool) "session done" true (S.state s = S.Done);
      Alcotest.(check int) "clean exit class" 0 (S.exit_code s))

let expect_reject t sock line expected_substr =
  let c = connect sock in
  send t c line;
  (match recv_line t c with
  | Some reply ->
      let is_reject =
        String.length reply >= 6 && String.sub reply 0 6 = "reject"
      in
      Alcotest.(check bool)
        (Printf.sprintf "reject (%s) in %S" expected_substr reply)
        true is_reject
  | None -> Alcotest.fail "no reject line");
  recv_eof t c;
  Unix.close c

let test_handshake_rejections () =
  with_server ~spec:landing_spec (fun t sock ->
      expect_reject t sock (hello "bad id!" "-") "bad id";
      expect_reject t sock (hello "w1" "wrong-fp") "fp mismatch";
      expect_reject t sock "how do you do\n" "bad hello";
      (* Busy: a second hello for a connected session. *)
      let c1 = open_session t sock ~id:"w1" ~fp:"-" in
      expect_reject t sock (hello "w1" "-") "busy";
      Unix.close c1;
      ticks t;
      (* Completed: the id of a finished session is not reusable. *)
      let c2 = open_session t sock ~id:"w2" ~fp:landing_fp in
      send t c2 landing_doc;
      ignore (recv_line t c2);
      recv_eof t c2;
      Unix.close c2;
      expect_reject t sock (hello "w2" "-") "already completed")

let test_server_full_polite_rejection () =
  with_server ~max_sessions:1 (fun t sock ->
      let c1 = open_session t sock ~id:"only" ~fp:"-" in
      let c2 = connect sock in
      ticks t;
      (match recv_line t c2 with
      | Some reply ->
          Alcotest.(check string) "polite rejection" "reject server full" reply
      | None -> Alcotest.fail "no rejection line");
      recv_eof t c2;
      Unix.close c2;
      Alcotest.(check int) "reject counted" 1 (L.counters t).Serve.Control.rejects;
      (* The incumbent is unharmed. *)
      send t c1 (chain_doc 5);
      (match recv_line t c1 with
      | Some v ->
          Alcotest.(check string) "incumbent verdict"
            (Jmpax.Pipeline.verdict_line false) v
      | None -> Alcotest.fail "incumbent lost");
      Unix.close c1)

(* {1 Fair scheduling} *)

(* A firehose writer shoves a large stream as fast as the socket
   accepts; a drip writer trickles one tiny chunk per tick.  With a
   small read budget, the drip session must keep making progress while
   the firehose is being served — the round-robin budget is the only
   thing standing between it and starvation. *)
let test_fair_scheduling_no_starvation () =
  with_server ~read_budget:512 (fun t sock ->
      let fire = open_session t sock ~id:"firehose" ~fp:true_fp in
      let drip = open_session t sock ~id:"drip" ~fp:true_fp in
      let fire_doc = chain_doc 4000 in
      let drip_doc = chain_doc 20 in
      (* Interleave: the firehose pushes everything; the drip feeds a
         few bytes between bursts. *)
      let drip_pos = ref 0 in
      let fire_data = Bytes.of_string fire_doc in
      let fire_pos = ref 0 in
      let fire_len = Bytes.length fire_data in
      let guard = ref 0 in
      while (!fire_pos < fire_len || !drip_pos < String.length drip_doc)
            && !guard < 100_000 do
        incr guard;
        (if !fire_pos < fire_len then
           match Unix.write fire fire_data !fire_pos (fire_len - !fire_pos) with
           | n -> fire_pos := !fire_pos + n
           | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
             -> ());
        (if !drip_pos < String.length drip_doc then
           let chunk = min 3 (String.length drip_doc - !drip_pos) in
           match
             Unix.write drip
               (Bytes.of_string (String.sub drip_doc !drip_pos chunk))
               0 chunk
           with
           | n -> drip_pos := !drip_pos + n
           | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
             -> ());
        tick t;
        (* The drip session is never starved: whenever the firehose has
           made progress, the drip's consumed events stay within reach
           of its own (tiny) stream — it is serviced every tick. *)
        ()
      done;
      (match recv_line t drip with
      | Some v ->
          Alcotest.(check string) "drip verdict"
            (Jmpax.Pipeline.verdict_line false) v
      | None -> Alcotest.fail "drip session starved: no verdict");
      (match recv_line t fire with
      | Some v ->
          Alcotest.(check string) "firehose verdict"
            (Jmpax.Pipeline.verdict_line false) v
      | None -> Alcotest.fail "firehose lost");
      let reg = L.registry t in
      let events id =
        S.events (Option.get (Serve.Registry.find reg id))
      in
      Alcotest.(check int) "drip fully consumed" 20 (events "drip");
      Alcotest.(check int) "firehose fully consumed" 4000 (events "firehose");
      Unix.close fire;
      Unix.close drip)

(* {1 Backpressure isolation} *)

let test_backpressure_disconnects_only_offender () =
  with_server ~max_buffered:2 (fun t sock ->
      let good = open_session t sock ~id:"good" ~fp:true_fp in
      let bad = open_session t sock ~id:"bad" ~fp:true_fp in
      (* The offender: a reversed stream that must buffer everything. *)
      send t bad (reversed_doc 8);
      ticks t ~n:20;
      let reg = L.registry t in
      let bad_s = Option.get (Serve.Registry.find reg "bad") in
      Alcotest.(check bool) "offender failed" true (S.state bad_s = S.Failed);
      Alcotest.(check int) "offender exit class 4" 4 (S.exit_code bad_s);
      Alcotest.(check bool) "offender disconnected" false (S.connected bad_s);
      (* The sibling streams on, completely unaffected. *)
      send t good (chain_doc 50);
      (match recv_line t good with
      | Some v ->
          Alcotest.(check string) "sibling verdict"
            (Jmpax.Pipeline.verdict_line false) v
      | None -> Alcotest.fail "sibling was disturbed");
      let good_s = Option.get (Serve.Registry.find reg "good") in
      Alcotest.(check bool) "sibling done" true (S.state good_s = S.Done);
      Unix.close good;
      Unix.close bad)

(* {1 In-memory resume (disconnect / reconnect)} *)

let test_reconnect_resumes_in_memory () =
  with_server ~spec:landing_spec (fun t sock ->
      let half = String.length landing_doc / 2 in
      let c1 = open_session t sock ~id:"w" ~fp:landing_fp in
      send t c1 (String.sub landing_doc 0 half);
      ticks t;
      Unix.close c1;
      ticks t;
      let s = Option.get (Serve.Registry.find (L.registry t) "w") in
      Alcotest.(check bool) "parked" true (S.state s = S.Disconnected);
      Alcotest.(check int) "disconnect counted" 1
        (L.counters t).Serve.Control.disconnects;
      (* Reconnect with the same id; replay from byte 0 as the protocol
         demands; the daemon discards the prefix it already holds. *)
      let c2 = connect sock in
      send t c2 (hello "w" landing_fp);
      (match recv_line t c2 with
      | Some ack ->
          Alcotest.(check string) "ack announces the discard"
            (Printf.sprintf "ok %d" half) ack
      | None -> Alcotest.fail "no resume ack");
      send t c2 landing_doc;
      (match recv_line t c2 with
      | Some verdict ->
          Alcotest.(check string) "verdict parity after reconnect"
            landing_expected verdict
      | None -> Alcotest.fail "no verdict after resume");
      Alcotest.(check int) "resume counted" 1
        (L.counters t).Serve.Control.resumes;
      Unix.close c2)

(* {1 Drain: checkpoint, exit codes, resume parity} *)

let test_drain_checkpoints_and_resume_parity () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let half = String.length landing_doc / 2 in
  (* Phase 1: feed half the stream, then drain (the SIGTERM path). *)
  with_server ~spec:landing_spec ~checkpoint_dir:dir (fun t sock ->
      let c = open_session t sock ~id:"w" ~fp:landing_fp in
      send t c (String.sub landing_doc 0 half);
      ticks t;
      L.request_drain t;
      tick t;
      Alcotest.(check bool) "finished" true (L.finished t);
      Alcotest.(check int) "clean drain exit" 0 (L.exit_code t);
      let res = Option.get (L.drain_result t) in
      Alcotest.(check int) "one session drained" 1 res.Serve.Drain.dr_sessions;
      Alcotest.(check int) "one checkpoint" 1 res.Serve.Drain.dr_checkpointed;
      Alcotest.(check bool) "checkpoint file exists" true
        (Sys.file_exists (Filename.concat dir "w.ckpt"));
      Unix.close c);
  (* Phase 2: a fresh daemon (the restart) resumes from the checkpoint
     file; the writer replays from byte 0. *)
  with_server ~spec:landing_spec ~checkpoint_dir:dir (fun t sock ->
      let c = connect sock in
      send t c (hello "w" landing_fp);
      (match recv_line t c with
      | Some ack -> (
          match String.split_on_char ' ' ack with
          | [ "ok"; n ] ->
              let n = int_of_string n in
              Alcotest.(check bool)
                (Printf.sprintf "resume offset %d in (0, %d]" n half)
                true
                (n > 0 && n <= half)
          | _ -> Alcotest.failf "bad resume ack %S" ack)
      | None -> Alcotest.fail "no resume ack");
      send t c landing_doc;
      (match recv_line t c with
      | Some verdict ->
          Alcotest.(check string)
            "verdict parity: drain + restart + resume = uninterrupted"
            landing_expected verdict
      | None -> Alcotest.fail "no verdict after checkpoint resume");
      Alcotest.(check int) "disk resume counted" 1
        (L.counters t).Serve.Control.resumes;
      Unix.close c)

let test_drain_failure_isolated_per_session () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* Sabotage exactly one session's checkpoint: a directory squatting on
     its <id>.ckpt path makes the atomic rename fail. *)
  Unix.mkdir (Filename.concat dir "victim.ckpt") 0o700;
  with_server ~spec:landing_spec ~checkpoint_dir:dir (fun t sock ->
      let half = String.length landing_doc / 2 in
      let v = open_session t sock ~id:"victim" ~fp:landing_fp in
      let s = open_session t sock ~id:"survivor" ~fp:landing_fp in
      send t v (String.sub landing_doc 0 half);
      send t s (String.sub landing_doc 0 half);
      ticks t;
      L.request_drain t;
      tick t;
      Alcotest.(check bool) "finished" true (L.finished t);
      Alcotest.(check int) "aggregate exit code 6" 6 (L.exit_code t);
      let res = Option.get (L.drain_result t) in
      Alcotest.(check int) "both sessions drained" 2 res.Serve.Drain.dr_sessions;
      Alcotest.(check int) "survivor checkpointed" 1
        res.Serve.Drain.dr_checkpointed;
      Alcotest.(check (list string)) "only the victim failed" [ "victim" ]
        (List.map fst res.Serve.Drain.dr_failed);
      Alcotest.(check bool) "survivor checkpoint on disk" true
        (Sys.file_exists (Filename.concat dir "survivor.ckpt"));
      let victim = Option.get (Serve.Registry.find (L.registry t) "victim") in
      Alcotest.(check int) "victim marked exit class 6" 6 (S.exit_code victim);
      Unix.close v;
      Unix.close s)

(* {1 Idle eviction through the loop} *)

let test_idle_eviction_checkpoints () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_server ~spec:landing_spec ~checkpoint_dir:dir ~idle_timeout:10.0
    (fun t sock ->
      let half = String.length landing_doc / 2 in
      let c = open_session t sock ~id:"idler" ~fp:landing_fp in
      send t c (String.sub landing_doc 0 half);
      ticks t;
      clock := 100.0;
      ticks t;
      Alcotest.(check bool) "evicted" false
        (Serve.Registry.mem (L.registry t) "idler");
      Alcotest.(check int) "eviction counted" 1
        (L.counters t).Serve.Control.evictions;
      Alcotest.(check bool) "evicted tenant keeps its crash safety" true
        (Sys.file_exists (Filename.concat dir "idler.ckpt"));
      Unix.close c)

(* {1 Control socket} *)

(* One control request driven through the nonblocking test harness:
   write the request line, tick the loop until the reply closes. *)
let query t sock request =
  let ctl = connect (sock ^ ".ctl") in
  Fun.protect ~finally:(fun () -> Unix.close ctl) @@ fun () ->
  send t ctl (request ^ "\n");
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec drain tries =
    if tries = 0 then Alcotest.fail "control reply never completed"
    else
      match Unix.read ctl chunk 0 256 with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain tries
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          tick t;
          drain (tries - 1)
  in
  drain 2000;
  Buffer.contents buf

let has hay needle =
  let nl = String.length needle and rl = String.length hay in
  let rec go i = i + nl <= rl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_control_stats () =
  with_server ~spec:landing_spec (fun t sock ->
      let c = open_session t sock ~id:"w" ~fp:landing_fp in
      send t c landing_doc;
      ignore (recv_line t c);
      let reply = query t sock "stats" in
      Alcotest.(check bool) "preamble" true (has reply "jmpax-serve 1");
      Alcotest.(check bool) "accepts counter" true (has reply "serve.accepts 1");
      Alcotest.(check bool) "per-session line" true
        (has reply "session id=w state=done");
      Alcotest.(check bool) "events rollup" true (has reply "serve.events_total");
      Alcotest.(check bool) "health line" true (has reply "health ok");
      Unix.close c)

let with_metrics_on f =
  Telemetry.Metrics.enable ();
  Telemetry.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Metrics.reset ();
      Telemetry.Metrics.disable ())
    f

let test_control_metrics_exposition () =
  with_metrics_on @@ fun () ->
  with_server ~spec:landing_spec (fun t sock ->
      let c = open_session t sock ~id:"w" ~fp:landing_fp in
      send t c landing_doc;
      ignore (recv_line t c);
      let reply = query t sock "metrics" in
      (* The tentpole families from the acceptance bar. *)
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("exposition carries " ^ needle) true
            (has reply needle))
        [ "jmpax_serve_verdict_latency_seconds_bucket";
          "jmpax_serve_events_per_second";
          "jmpax_serve_accepts_total 1";
          "jmpax_serve_session_events_total{sid=\"w\"}";
          "le=\"+Inf\"" ];
      (* TYPE precedes its samples, and each family is TYPEd once. *)
      let idx needle =
        let nl = String.length needle and rl = String.length reply in
        let rec go i =
          if i + nl > rl then None
          else if String.sub reply i nl = needle then Some i
          else go (i + 1)
        in
        go 0
      in
      (match
         ( idx "# TYPE jmpax_serve_accepts_total counter",
           idx "jmpax_serve_accepts_total 1" )
       with
      | Some ty, Some sample ->
          Alcotest.(check bool) "TYPE precedes its samples" true (ty < sample)
      | _ -> Alcotest.fail "accepts family incomplete");
      (* The mirror: the registry copy and the exposition agree with the
         plain counters even though both rendered the same scrape. *)
      Alcotest.(check bool) "no duplicate accepts family" false
        (has
           (String.concat "+"
              (String.split_on_char '\n' reply
              |> List.filter (fun l -> has l "# TYPE jmpax_serve_accepts_total")))
           "+#");
      Unix.close c)

let test_control_health_thresholds () =
  with_server ~max_buffered:64 ~health_max_buffered:2 (fun t sock ->
      Alcotest.(check string) "idle daemon is ok" "ok\n" (query t sock "health");
      (* Messages 2..5 without message 1: all four buffer out of order,
         crossing the threshold of 2. *)
      let c = open_session t sock ~id:"w" ~fp:true_fp in
      let header = { W.nthreads = 1; init = [ ("x", 0) ] } in
      List.iter (send t c)
        (frames header (List.map (fun i -> msg 0 "x" i [ i ]) [ 2; 3; 4; 5 ]));
      ticks t;
      let reply = query t sock "health" in
      Alcotest.(check bool) "degraded under buffering" true
        (has reply "degraded");
      Alcotest.(check bool) "offender named" true (has reply "sid=w");
      Unix.close c)

(* {1 Resource budgets} *)

let budget_64 = Jmpax.Budget.limits ~max_frontier_cuts:64 ()

(* A degraded session prints its linear-engine verdict lines first; the
   marked line stands where the lattice verdict would have.  Skip to
   the [predictive verdict] line. *)
let recv_verdict t sock =
  let rec go n =
    if n = 0 then Alcotest.fail "no predictive verdict line"
    else
      match recv_line t sock with
      | Some line
        when String.length line >= 10 && String.sub line 0 10 = "predictive" ->
          line
      | Some _ -> go (n - 1)
      | None -> Alcotest.fail "eof before a verdict line"
  in
  go 10

let test_budget_degrade_isolates_neighbor () =
  with_server ~budget:budget_64 ~on_overload:Jmpax.Budget.Degrade
    (fun t sock ->
      let hog = open_session t sock ~id:"hog" ~fp:true_fp in
      let good = open_session t sock ~id:"good" ~fp:true_fp in
      send t hog (exploding_doc ());
      ticks t ~n:50;
      let hog_s = Option.get (Serve.Registry.find (L.registry t) "hog") in
      (match S.degraded hog_s with
      | Some d ->
          Alcotest.(check string) "shed the lattice engine" "lattice"
            d.Predict.Engines.d_from;
          Alcotest.(check string) "breach reason stamped" "frontier_budget"
            d.Predict.Engines.d_reason
      | None -> Alcotest.fail "the exploding session never degraded");
      (* The hog still completes — on the linear engines — and its
         verdict is explicitly marked, never a full-coverage claim. *)
      let v = recv_verdict t hog in
      Alcotest.(check bool) (Printf.sprintf "marked verdict %S" v) true
        (has v "degraded(from=lattice,reason=frontier_budget,at_event=");
      (* The neighbour streams on, completely unaffected. *)
      send t good (chain_doc 50);
      Alcotest.(check string) "neighbour verdict"
        (Jmpax.Pipeline.verdict_line false)
        (recv_verdict t good);
      (* The control socket surfaces the budget state per session. *)
      let reply = query t sock "stats" in
      Alcotest.(check bool) "stats names the degraded session" true
        (has reply "degraded=frontier_budget");
      Alcotest.(check bool) "stats carries cut counts" true (has reply "cuts=");
      Unix.close hog;
      Unix.close good)

(* The acceptance bar: whatever happens to the exploding tenant under
   each policy, a well-behaved neighbour's verdict is byte-identical to
   a run on an unloaded daemon. *)
let test_budget_policies_neighbor_parity () =
  let baseline =
    with_server (fun t sock ->
        let c = open_session t sock ~id:"solo" ~fp:true_fp in
        send t c (chain_doc 50);
        let v = recv_verdict t c in
        Unix.close c;
        v)
  in
  List.iter
    (fun (name, policy) ->
      with_server ~budget:budget_64 ~on_overload:policy (fun t sock ->
          let hog = open_session t sock ~id:"hog" ~fp:true_fp in
          let good = open_session t sock ~id:"good" ~fp:true_fp in
          send t hog (exploding_doc ());
          ticks t ~n:50;
          let hog_s = Option.get (Serve.Registry.find (L.registry t) "hog") in
          (match policy with
          | Jmpax.Budget.Degrade ->
              Alcotest.(check bool) (name ^ ": hog degraded") true
                (S.degraded hog_s <> None)
          | Jmpax.Budget.Evict | Jmpax.Budget.Fail ->
              Alcotest.(check bool) (name ^ ": hog dropped") true
                (S.state hog_s = S.Failed);
              Alcotest.(check int) (name ^ ": budget exit class") 8
                (S.exit_code hog_s));
          send t good (chain_doc 50);
          Alcotest.(check string)
            (name ^ ": neighbour verdict byte-identical to unloaded run")
            baseline (recv_verdict t good);
          Unix.close hog;
          Unix.close good))
    [ ("degrade", Jmpax.Budget.Degrade);
      ("evict", Jmpax.Budget.Evict);
      ("fail", Jmpax.Budget.Fail) ]

(* Reduced coverage must survive the full crash-safety cycle: a marker
   minted at degrade time reappears, bit for bit, in the verdict of a
   drained, restarted and resumed daemon. *)
let test_degraded_marker_survives_restart () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let at_event =
    with_server ~checkpoint_dir:dir ~budget:budget_64
      ~on_overload:Jmpax.Budget.Degrade (fun t sock ->
        let c = open_session t sock ~id:"hog" ~fp:true_fp in
        send t c (exploding_prefix ());
        ticks t ~n:50;
        let s = Option.get (Serve.Registry.find (L.registry t) "hog") in
        let d =
          match S.degraded s with
          | Some d -> d
          | None -> Alcotest.fail "never degraded before the drain"
        in
        L.request_drain t;
        tick t;
        Alcotest.(check int) "clean drain exit" 0 (L.exit_code t);
        Alcotest.(check bool) "checkpoint on disk" true
          (Sys.file_exists (Filename.concat dir "hog.ckpt"));
        Unix.close c;
        d.Predict.Engines.d_at_event)
  in
  with_server ~checkpoint_dir:dir ~budget:budget_64
    ~on_overload:Jmpax.Budget.Degrade (fun t sock ->
      let c = open_session t sock ~id:"hog" ~fp:true_fp in
      (* The marker is already back before a single replayed byte: it
         rode the checkpoint, not the stream. *)
      let s = Option.get (Serve.Registry.find (L.registry t) "hog") in
      (match S.degraded s with
      | Some d ->
          Alcotest.(check int) "marker at_event preserved" at_event
            d.Predict.Engines.d_at_event
      | None -> Alcotest.fail "resume lost the degraded marker");
      send t c (exploding_doc ());
      let v = recv_verdict t c in
      Alcotest.(check bool) (Printf.sprintf "marked verdict %S" v) true
        (has v
           (Printf.sprintf "degraded(from=lattice,reason=frontier_budget,at_event=%d)"
              at_event));
      Unix.close c)

(* [--max-buffered] bounds the causal-delivery buffer too: messages
   held there for another thread's message cross it like messages held
   for their own thread's, and the session fails with the backpressure
   class 4. *)
let test_causal_overflow_is_backpressure () =
  with_server
    ~engines:[ Predict.Engine.Lattice; Predict.Engine.Race ]
    ~max_buffered:3 (fun t sock ->
      let c = open_session t sock ~id:"w" ~fp:true_fp in
      let header = { W.nthreads = 2; init = [ ("x", 0) ] } in
      (* Thread 1's messages all wait on thread 0's fifth message, which
         never comes: each parks in the causal-delivery buffer until the
         bound of 3 is crossed. *)
      List.iter (send t c)
        (frames header
           (List.init 6 (fun i ->
                let j = i + 1 in
                msg ~eid:j 1 "x" j [ 5; j ])));
      ticks t ~n:20;
      let s = Option.get (Serve.Registry.find (L.registry t) "w") in
      Alcotest.(check bool) "offender failed" true (S.state s = S.Failed);
      Alcotest.(check int) "backpressure exit class 4" 4 (S.exit_code s);
      Unix.close c)

(* Admission control: over the global memory budget the daemon keeps
   serving residents but answers new hellos with a polite reject, and
   [health] names the hungriest session. *)
let test_memory_budget_admission_control () =
  with_server ~memory_budget:1 (fun t sock ->
      let c = open_session t sock ~id:"resident" ~fp:true_fp in
      (* Any live analysis state exceeds a one-byte global budget. *)
      let header = { W.nthreads = 1; init = [ ("x", 0) ] } in
      let enc = W.Framed3.encoder header in
      send t c (W.Framed3.encode_header header);
      ticks t;
      let probe = connect sock in
      ticks t;
      (match recv_line t probe with
      | Some reply ->
          Alcotest.(check string) "polite admission reject"
            "reject server busy" reply
      | None -> Alcotest.fail "no rejection line");
      recv_eof t probe;
      Unix.close probe;
      let reply = query t sock "health" in
      Alcotest.(check bool) "health degraded" true (has reply "degraded");
      Alcotest.(check bool) "reason named" true (has reply "reason=memory_budget");
      Alcotest.(check bool) "offender named" true (has reply "sid=resident");
      (* The resident is unharmed and completes normally. *)
      send t c (W.Framed3.encode_message enc (msg 0 "x" 1 [ 1 ]));
      send t c (W.Framed3.encode_end 0);
      Alcotest.(check string) "resident verdict"
        (Jmpax.Pipeline.verdict_line false)
        (recv_verdict t c);
      Unix.close c)

(* {1 Finished sessions release their analysis state} *)

(* The [session] lines of a [stats] reply without their [age=] token. *)
let session_lines reply =
  String.split_on_char '\n' reply
  |> List.filter (String.starts_with ~prefix:"session ")
  |> List.map (fun line ->
         String.split_on_char ' ' line
         |> List.filter (fun tok -> not (String.starts_with ~prefix:"age=" tok))
         |> String.concat " ")

(* What an earlier build, which kept every finished session's reader and
   engines, printed for the three sessions below; [skipped=] since it
   reads the reader's count of frames skipped, which includes the
   refused duplicate [bad] fails on. *)
let finished_stats =
  [ "session id=bad state=failed events=3 level=1 buffered=1 lag=0 skipped=1 \
     checkpoints=0 verdict=- code=3 cuts=2 causal=0 degraded=no";
    "session id=done state=done events=3 level=3 buffered=0 lag=0 skipped=0 \
     checkpoints=0 verdict=violation code=0 cuts=1 causal=0 degraded=no";
    "session id=hog state=done events=60 level=60 buffered=0 lag=0 skipped=0 \
     checkpoints=0 verdict=violation code=0 cuts=0 causal=0 \
     degraded=frontier_budget" ]

let test_finished_sessions_released () =
  with_server ~spec:landing_spec ~budget:budget_64
    ~on_overload:Jmpax.Budget.Degrade (fun t sock ->
      let done_ = open_session t sock ~id:"done" ~fp:landing_fp in
      send t done_ landing_doc;
      Alcotest.(check string) "lattice verdict" landing_expected
        (recv_verdict t done_);
      let hog = open_session t sock ~id:"hog" ~fp:"-" in
      send t hog (exploding_doc ());
      ignore (recv_verdict t hog);
      let bad = open_session t sock ~id:"bad" ~fp:"-" in
      (* Fails on a duplicate while one message waits out of order. *)
      send t bad
        (String.concat ""
           (frames { W.nthreads = 2; init = [ ("x", 0) ] }
              [ msg 0 "x" 1 [ 1; 0 ]; msg 0 "x" 3 [ 3; 0 ];
                msg 1 "x" 2 [ 0; 1 ]; msg 0 "x" 1 [ 1; 0 ] ]));
      ticks t;
      List.iter
        (fun (id, state) ->
          let s = Option.get (Serve.Registry.find (L.registry t) id) in
          Alcotest.(check bool) (id ^ " finished") true (S.state s = state);
          Alcotest.(check int) (id ^ " holds no analysis state") 0 (S.mem_words s))
        [ ("done", S.Done); ("hog", S.Done); ("bad", S.Failed) ];
      let reply = query t sock "stats" in
      Alcotest.(check (list string)) "session lines unchanged by the release"
        finished_stats (session_lines reply);
      Alcotest.(check bool) "mem_bytes back to 0" true
        (has reply "\nserve.mem_bytes 0\n");
      List.iter Unix.close [ done_; hog; bad ])

(* {1 Golden serve checkpoint}

   A 3-thread lock-counter run (40 iterations, schedule seed 2) under an
   interval spec, reordered in transit (window 16, seed 9) and written
   as wire v3.  One session streams the first half of it and the daemon
   drains; an earlier build's drain checkpoint is committed as
   [data/serve_3t_v3_mid.ckpt].  The same run written as wire v2 left
   [data/serve_3t_mid.ckpt], which is now refused. *)

let golden_serve_spec =
  Pastltl.Fparser.parse "start c > 2 ==> [x0 >= 1, x1 > x2 + 1)"

let golden_serve_doc =
  lazy
    (let program =
       Tml.Parser.parse_program (Lock_counter.source ~threads:3 ~iters:40 ~nops:0)
     in
     let config =
       Jmpax.Config.default () |> Jmpax.Config.with_sched (Tml.Sched.random ~seed:2)
     in
     let out = Jmpax.Pipeline.check ~config ~spec:golden_serve_spec program in
     let relevant = out.Jmpax.Pipeline.relevant_vars in
     let header =
       { W.nthreads = 3;
         init =
           List.filter (fun (x, _) -> List.mem x relevant) program.Tml.Ast.shared }
     in
     W.Framed3.encode header
       (Observer.Channel.bounded_reorder ~seed:9 ~window:16
          out.Jmpax.Pipeline.run.Tml.Vm.messages))

let golden_serve_md5 = "f18fb0cfa333b280c384e2fd76d6cb64"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let data_file name =
  (* Beside the executable under [dune runtest], under [test/] from the
     repository root under [dune exec]. *)
  List.map
    (fun d -> Filename.concat d (Filename.concat "data" name))
    [ Filename.dirname Sys.executable_name; "test" ]
  |> List.find Sys.file_exists

(* A frame whose clock gives its thread the sequence number 2^40 is one
   more out-of-order message: the session, its drain checkpoint and the
   session resumed from that checkpoint all stay small. *)
let test_forged_seq_stays_small () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spec = Pastltl.Fparser.parse "always x <= 3" in
  let fp = Jmpax.Checkpoint.fingerprint spec in
  let doc =
    String.concat ""
      (frames { W.nthreads = 2; init = [ ("x", 0) ] }
         [ msg 0 "x" 1 [ 1; 0 ]; msg 0 "x" 2 [ 1 lsl 40; 0 ]; msg 1 "x" 3 [ 1; 1 ] ])
  in
  let small t =
    let s = Option.get (Serve.Registry.find (L.registry t) "far") in
    if S.mem_words s > 10_000 then Alcotest.failf "session holds %d words" (S.mem_words s)
  in
  with_server ~spec ~checkpoint_dir:dir (fun t sock ->
      let c = open_session t sock ~id:"far" ~fp in
      send t c doc;
      ticks t;
      small t;
      L.request_drain t;
      tick t;
      Alcotest.(check int) "clean drain exit" 0 (L.exit_code t);
      Unix.close c);
  let ck = read_file (Filename.concat dir "far.ckpt") in
  Alcotest.(check bool) "checkpoint keeps the far message" true
    (has ck "(1099511627776,0)");
  Alcotest.(check bool) "checkpoint is small" true (String.length ck < 4096);
  with_server ~spec ~checkpoint_dir:dir (fun t sock ->
      let c = connect sock in
      send t c (hello "far" fp);
      (match recv_line t c with
      | Some ack when String.starts_with ~prefix:"ok " ack -> ()
      | _ -> Alcotest.fail "no resume ack");
      ticks t;
      small t;
      Unix.close c)

let test_golden_serve_checkpoint () =
  let doc = Lazy.force golden_serve_doc in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_server ~spec:golden_serve_spec ~checkpoint_dir:dir (fun t sock ->
      let c =
        open_session t sock ~id:"w"
          ~fp:(Jmpax.Checkpoint.fingerprint golden_serve_spec)
      in
      send t c (String.sub doc 0 (String.length doc / 2));
      ticks t;
      L.request_drain t;
      tick t;
      Alcotest.(check int) "clean drain exit" 0 (L.exit_code t);
      Unix.close c);
  let ours = read_file (Filename.concat dir "w.ckpt") in
  let committed = read_file (data_file "serve_3t_v3_mid.ckpt") in
  Alcotest.(check string) "committed file digest" golden_serve_md5
    (Digest.to_hex (Digest.string committed));
  Alcotest.(check string) "byte-identical to the committed checkpoint" committed
    ours

(* The daemon meets a checkpoint of the same session id that an earlier
   build wrote: the wire-v2 drain checkpoint, or the v3 one carrying an
   engine block in a retired layout ([linear 1], [race 1], [atomicity
   1]).  It logs [checkpoint_invalid] naming the format, starts the
   session fresh, and the replayed v3 stream gets the verdict of an
   uninterrupted run. *)
let test_v2_checkpoint_starts_fresh () =
  let doc = Lazy.force golden_serve_doc in
  let expected =
    match Jmpax.Stream.run_string ~spec:golden_serve_spec doc with
    | Ok o -> Jmpax.Pipeline.verdict_line o.Jmpax.Stream.s_violated
    | Error e -> Alcotest.failf "stream: %s" (W.Error.to_string e)
  in
  let with_block (name, version) =
    match Jmpax.Checkpoint.decode (read_file (data_file "serve_3t_v3_mid.ckpt")) with
    | Ok ck -> (version, Jmpax.Checkpoint.encode { ck with ck_engines = [ (name, [ version ]) ] })
    | Error e -> Alcotest.fail (Jmpax.Checkpoint.error_to_string e)
  in
  List.iter
    (fun (format, text) ->
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      Out_channel.with_open_bin (Filename.concat dir "w.ckpt") (fun oc -> output_string oc text);
      with_server ~spec:golden_serve_spec ~checkpoint_dir:dir (fun t sock ->
          let log = Buffer.create 256 in
          Telemetry.Log.set_sink (Buffer.add_string log);
          let c = connect sock in
          send t c (hello "w" (Jmpax.Checkpoint.fingerprint golden_serve_spec));
          Alcotest.(check (option string)) (format ^ ": fresh start") (Some "ok 0")
            (recv_line t c);
          let log = Buffer.contents log in
          Alcotest.(check bool) (format ^ ": checkpoint_invalid logged") true
            (has log "checkpoint_invalid");
          Alcotest.(check bool) ("the log names " ^ format) true (has log format);
          send t c doc;
          Alcotest.(check (option string)) (format ^ ": uninterrupted verdict") (Some expected)
            (recv_line t c);
          Alcotest.(check int) (format ^ ": no resume counted") 0
            (L.counters t).Serve.Control.resumes;
          Unix.close c))
    (("wire v2", read_file (data_file "serve_3t_mid.ckpt"))
    :: List.map with_block
         [ ("linear", "linear 1"); ("race", "race 1"); ("atomicity", "atomicity 1") ])

(* {1 The single-accept listener (regression)} *)

(* [jmpax stream listen-unix:PATH] accepts exactly one writer; the
   listening socket must be closed and unlinked the moment the session
   socket is accepted, so a second writer is refused instead of queueing
   forever against a leaked listener. *)
let test_listen_once_closes_listener () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "one.sock" in
  let writer = Thread.create (fun () ->
      (* Dial until the listener is up, then hold the session open long
         enough for the second-connect probe below. *)
      let rec dial tries =
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect s (Unix.ADDR_UNIX path) with
        | () -> s
        | exception Unix.Unix_error _ ->
            Unix.close s;
            if tries = 0 then failwith "listener never appeared"
            else begin
              ignore (Unix.select [] [] [] 0.01);
              dial (tries - 1)
            end
      in
      let s = dial 500 in
      ignore (Unix.select [] [] [] 0.3);
      Unix.close s)
      ()
  in
  (match Jmpax.Transport.listen_once path with
  | Error msg -> Alcotest.failf "listen_once: %s" msg
  | Ok transport ->
      (* The one writer is connected; the listener must already be gone:
         its socket path unlinked, a fresh connect refused. *)
      Alcotest.(check bool) "socket path unlinked after accept" false
        (Sys.file_exists path);
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () ->
          Unix.close probe;
          Alcotest.fail "second writer connected: the listener leaked"
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
          Unix.close probe);
      Jmpax.Transport.close transport);
  Thread.join writer

(* {1 One driver under stream and serve} *)

(* Run [doc] through a fresh session over a socketpair, logging at info
   level.  Returns the session, the lines it wrote after its ack, and
   the log lines. *)
let session_run cfg doc =
  let log = ref [] in
  Telemetry.Log.set_level Telemetry.Log.Info;
  Telemetry.Log.set_sink (fun l -> log := l :: !log);
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Log.set_sink ignore;
      Telemetry.Log.set_level Telemetry.Log.Warn)
  @@ fun () ->
  let s, peer = mk_session ~cfg () in
  Fun.protect ~finally:(fun () -> Unix.close peer) @@ fun () ->
  ignore (S.start_fresh s ~id:"one" ~rest:doc);
  if S.state s <> S.Done && S.state s <> S.Failed then
    Alcotest.fail "the session did not finish on its document";
  let reply = In_channel.input_all (Unix.in_channel_of_descr peer) in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' reply) in
  (s, List.tl lines, List.rev !log)

let stream_outcome ?budget ?on_overload ~recovery ~engines ~spec doc =
  match Jmpax.Stream.run_string ?budget ?on_overload ~recovery ~engines ~spec doc with
  | Ok o -> o
  | Error e -> Alcotest.failf "stream: %s" (W.Error.to_string e)

(* The verdict lines of [jmpax stream]'s report. *)
let verdict_lines o =
  String.split_on_char '\n' (Jmpax.Report.stream_summary o)
  |> List.filter (String.starts_with ~prefix:"predict")

(* 24 noise bytes before every vardef and message frame of the landing
   document, and inside each one's sentinel (which loses the frame): a
   session under [--on-decode-error skip] must report the gap stream
   reports ([incomplete=tid:next] in its verdict log line) and send
   stream's verdict lines.  A lost frame may be the vardef of a later
   delta, or leave a thread with nothing buffered behind its loss. *)
let test_lossy_parity_with_stream () =
  let noise = String.make 24 'x' in
  let doc = landing_doc in
  let frames =
    List.filter
      (fun i ->
        String.sub doc i 3 = W.Framed3.sentinel
        && (doc.[i + 3] = W.Framed3.kind_message || doc.[i + 3] = W.Framed3.kind_vardef))
      (List.init (String.length doc - 3) Fun.id)
  in
  Alcotest.(check bool) "landing frames found" true (List.length frames >= 6);
  let gaps = ref 0 in
  List.iter
    (fun engines ->
      List.iter
        (fun at ->
          let noisy =
            String.sub doc 0 at ^ noise ^ String.sub doc at (String.length doc - at)
          in
          let what = Printf.sprintf "noise at byte %d, %d engines" at (List.length engines) in
          let o =
            stream_outcome ~recovery:Jmpax.Config.Skip ~engines ~spec:landing_spec noisy
          in
          let s, lines, log =
            session_run
              (default_session ~spec:landing_spec ~engines
                 ~recovery:Jmpax.Config.Skip ())
              noisy
          in
          Alcotest.(check bool) (what ^ ": done") true (S.state s = S.Done);
          Alcotest.(check (list string)) (what ^ ": stream's verdict lines")
            (verdict_lines o) lines;
          let verdict_log =
            List.filter (fun l -> has l "event=verdict ") log
          in
          Alcotest.(check int) (what ^ ": one verdict log line") 1 (List.length verdict_log);
          let v = List.hd verdict_log in
          match o.Jmpax.Stream.s_stats.Jmpax.Stream.incomplete with
          | Some (tid, next) ->
              incr gaps;
              Alcotest.(check bool)
                (Printf.sprintf "%s: incomplete=%d:%d in %S" what tid next v)
                true
                (has v (Printf.sprintf " incomplete=%d:%d " tid next))
          | None ->
              Alcotest.(check bool) (what ^ ": no incomplete field") false
                (has v "incomplete="))
        (List.concat_map (fun i -> [ i; i + 1 ]) frames))
    [ [ Predict.Engine.Lattice ];
      [ Predict.Engine.Lattice; Predict.Engine.Race; Predict.Engine.Atomicity ] ];
  Alcotest.(check bool) "some variants lose a frame for good" true (!gaps > 0);
  (* A message frame sent again as a full clock (a writer that redialed
     and [reset]): both front ends skip the duplicate and count it, and
     stream quarantines the frame's own wire bytes. *)
  let h, ms =
    match W.decode_framed doc with
    | Ok d -> d
    | Error e -> Alcotest.failf "landing: %s" (W.Error.to_string e)
  in
  let enc = W.Framed3.encoder h in
  let frames = List.map (W.Framed3.encode_message enc) ms in
  W.Framed3.reset enc;
  let dup = W.Framed3.encode_message enc (List.nth ms 1) in
  let with_tail tail =
    String.concat ""
      ((W.Framed3.preamble :: W.Framed3.encode_header h :: frames)
      @ (tail @ List.init h.W.nthreads W.Framed3.encode_end))
  in
  let doc = with_tail [ dup ] in
  let sunk = Buffer.create 16 in
  let engines = [ Predict.Engine.Lattice ] in
  let stream ?quarantine doc =
    match
      Jmpax.Stream.run_string ~recovery:Jmpax.Config.Quarantine ?quarantine ~engines
        ~spec:landing_spec doc
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "stream: %s" (W.Error.to_string e)
  in
  let o = stream ~quarantine:(Buffer.add_string sunk) doc in
  let st = o.Jmpax.Stream.s_stats in
  let clean = (stream (with_tail [])).Jmpax.Stream.s_stats in
  Alcotest.(check string) "duplicate: the frame's bytes quarantined" dup (Buffer.contents sunk);
  Alcotest.(check (pair int int)) "duplicate: not counted as delivered"
    (clean.Jmpax.Stream.frames, clean.Jmpax.Stream.messages)
    (st.Jmpax.Stream.frames, st.Jmpax.Stream.messages);
  Alcotest.(check int) "duplicate: quarantined bytes" (String.length dup)
    st.Jmpax.Stream.quarantined_bytes;
  Alcotest.(check bool) "duplicate: stream reports the skip" true
    (has (Jmpax.Report.stream_summary o) "recovered: 1 frames skipped");
  let s, lines, _ =
    session_run
      (default_session ~spec:landing_spec ~engines ~recovery:Jmpax.Config.Quarantine ())
      doc
  in
  Alcotest.(check int) "duplicate: serve skips one" 1 (S.skipped s);
  Alcotest.(check int) "duplicate: stream's skip count = serve's" (S.skipped s)
    st.Jmpax.Stream.skipped_frames;
  Alcotest.(check (list string)) "duplicate: stream's verdict lines" (verdict_lines o) lines

(* [jmpax run -e landing -o F]'s trace (every write, round-robin
   schedule), with the 24 noise bytes CI's lossy-parity step splices in
   at byte 106: one garbage span and the frame it cut short. *)
let ci_lossy_landing =
  let program =
    Tml.Parser.parse_program (Option.get (Tml.Programs.source_of_name "landing"))
  in
  let r =
    Tml.Vm.run_program ~relevance:Mvc.Relevance.all_writes
      ~sched:(Tml.Sched.round_robin ()) program
  in
  let doc =
    W.Framed3.encode
      { W.nthreads = List.length program.Tml.Ast.threads; init = program.Tml.Ast.shared }
      r.Tml.Vm.messages
  in
  String.sub doc 0 106 ^ String.make 24 'x' ^ String.sub doc 106 (String.length doc - 106)

(* Serve's [skipped=] counts what stream's [recovered:] line counts as
   frames skipped: the reader's count, not one per skip event. *)
let test_skipped_counts_frames () =
  let o =
    stream_outcome ~recovery:Jmpax.Config.Skip ~engines:Predict.Engine.default_kinds
      ~spec:landing_spec ci_lossy_landing
  in
  let frames = o.Jmpax.Stream.s_stats.Jmpax.Stream.skipped_frames in
  Alcotest.(check bool) "stream skipped frames" true (frames > 0);
  let s, _, _ =
    session_run (default_session ~spec:landing_spec ~recovery:Jmpax.Config.Skip ())
      ci_lossy_landing
  in
  Alcotest.(check int) "serve's skipped = stream's frames skipped" frames (S.skipped s)

(* The count rides the checkpoint: a session resumed from one taken
   after the skip ends with the uninterrupted session's count. *)
let test_skipped_survives_resume () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let doc = ci_lossy_landing in
  let cfg =
    default_session ~spec:landing_spec ~checkpoint_dir:dir ~recovery:Jmpax.Config.Skip ()
  in
  let whole, _, _ = session_run cfg doc in
  let cut, peer = mk_session ~cfg () in
  ignore (S.start_fresh cut ~id:"cut" ~rest:(String.sub doc 0 (String.length doc - 8)));
  S.close cut;
  Unix.close peer;
  let ck =
    match Jmpax.Checkpoint.read (Option.get (S.checkpoint_path cfg "cut")) with
    | Ok ck -> ck
    | Error e -> Alcotest.fail (Jmpax.Checkpoint.error_to_string e)
  in
  Alcotest.(check bool) "checkpoint taken after the skip" true
    (ck.Jmpax.Checkpoint.ck_reader_stats.W.Reader.skipped_frames > 0);
  let resumed, peer = mk_session ~cfg () in
  Fun.protect ~finally:(fun () -> Unix.close peer) @@ fun () ->
  ignore (S.start_resume_checkpoint resumed ~id:"cut" ~ck ~rest:doc);
  Alcotest.(check bool) "resumed session done" true (S.state resumed = S.Done);
  Alcotest.(check int) "resumed count = uninterrupted" (S.skipped whole) (S.skipped resumed)

(* The [at_event] of the [degrade] log event is the verdict marker's, on
   both front ends, also when a skipped duplicate frame went before it:
   neither the marker nor the session's [events] counts the duplicate. *)
let test_degrade_log_at_event () =
  let doc =
    let ms = exploding_messages () in
    W.Framed3.encode exploding_header (List.hd ms :: ms)
  in
  let logged log =
    match List.filter (fun l -> has l "event=degrade ") log with
    | [ l ] -> (
        match
          List.find_opt (String.starts_with ~prefix:"at_event=") (String.split_on_char ' ' l)
        with
        | Some tok -> int_of_string (String.sub tok 9 (String.length tok - 9))
        | None -> Alcotest.failf "no at_event in %S" l)
    | ls -> Alcotest.failf "%d degrade log lines" (List.length ls)
  in
  let marker = function
    | Some d -> d.Predict.Engines.d_at_event
    | None -> Alcotest.fail "never degraded"
  in
  let log = ref [] in
  Telemetry.Log.set_sink (fun l -> log := l :: !log);
  let o =
    Fun.protect ~finally:(fun () -> Telemetry.Log.set_sink ignore) @@ fun () ->
    stream_outcome ~budget:budget_64 ~on_overload:Jmpax.Budget.Degrade
      ~recovery:Jmpax.Config.Skip ~engines:Predict.Engine.default_kinds
      ~spec:Pastltl.Formula.True doc
  in
  let at = marker o.Jmpax.Stream.s_degraded in
  Alcotest.(check int) "stream logs the marker's at_event" at (logged !log);
  let s, _, log =
    session_run
      (default_session ~budget:budget_64 ~on_overload:Jmpax.Budget.Degrade
         ~recovery:Jmpax.Config.Skip ())
      doc
  in
  Alcotest.(check int) "serve logs the marker's at_event" (marker (S.degraded s))
    (logged log);
  Alcotest.(check int) "one marker on both" at (marker (S.degraded s));
  let clean =
    stream_outcome ~budget:budget_64 ~on_overload:Jmpax.Budget.Degrade
      ~recovery:Jmpax.Config.Fail ~engines:Predict.Engine.default_kinds
      ~spec:Pastltl.Formula.True
      (W.Framed3.encode exploding_header (exploding_messages ()))
  in
  Alcotest.(check int) "the duplicate is not counted" (marker clean.Jmpax.Stream.s_degraded) at;
  Alcotest.(check int) "the duplicate was skipped" 1 (S.skipped s)

(* A session's per-message cost, as [Session.on_bytes] sees it: the
   race and atomicity engines over the 64-thread all-events lock-counter
   trace of [test_wire]'s stream allocation test, in 64 KiB chunks cut
   beforehand, allocate 137.0 minor words per message (best of three),
   as they did before the session shared its driver with the stream
   path.  The budget leaves 1.1 words over that, so a result wrapper
   (2 words) or a closure (3 or more) built per message fails it. *)
let session_alloc_budget = 138.1

let test_session_allocation () =
  let threads = 64 in
  let program = Tml.Parser.parse_program (Lock_counter.source ~threads ~iters:8 ~nops:0) in
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.random ~seed:1) program in
  let exec = Option.get r.Tml.Vm.exec in
  let messages = Predict.Engine.messages_of_exec exec in
  let doc = W.Framed3.encode { W.nthreads = threads; init = Trace.Exec.init exec } messages in
  let chunk = 65536 in
  let chunks =
    List.init
      ((String.length doc + chunk - 1) / chunk)
      (fun i -> String.sub doc (i * chunk) (min chunk (String.length doc - (i * chunk))))
  in
  let cfg =
    default_session ~engines:[ Predict.Engine.Race; Predict.Engine.Atomicity ] ()
  in
  let run () =
    let s, peer = mk_session ~cfg () in
    Fun.protect ~finally:(fun () -> Unix.close peer) @@ fun () ->
    ignore (S.start_fresh s ~id:"alloc" ~rest:"");
    let before = Gc.minor_words () in
    List.iter (fun c -> ignore (S.on_bytes s c)) chunks;
    let words = (Gc.minor_words () -. before) /. float_of_int (List.length messages) in
    Alcotest.(check bool) "session done" true (S.state s = S.Done);
    Alcotest.(check int) "every message consumed" (List.length messages) (S.events s);
    words
  in
  let words = List.fold_left min infinity (List.init 3 (fun _ -> run ())) in
  if words > session_alloc_budget then
    Alcotest.failf "%.1f minor words per session message (budget %.1f)" words
      session_alloc_budget

let () =
  Alcotest.run "serve"
    [ ( "registry",
        [ Alcotest.test_case "lifecycle" `Quick test_registry_lifecycle;
          Alcotest.test_case "idle sweep" `Quick test_registry_idle_sweep ] );
      ( "handshake",
        [ Alcotest.test_case "fresh session, verdict parity" `Quick
            test_handshake_fresh_and_verdict;
          Alcotest.test_case "rejections" `Quick test_handshake_rejections;
          Alcotest.test_case "server full is polite" `Quick
            test_server_full_polite_rejection ] );
      ( "scheduling",
        [ Alcotest.test_case "no starvation under a firehose" `Quick
            test_fair_scheduling_no_starvation ] );
      ( "isolation",
        [ Alcotest.test_case "backpressure disconnects only the offender"
            `Quick test_backpressure_disconnects_only_offender ] );
      ( "resume",
        [ Alcotest.test_case "reconnect resumes in memory" `Quick
            test_reconnect_resumes_in_memory;
          Alcotest.test_case "drain, restart, resume: verdict parity" `Quick
            test_drain_checkpoints_and_resume_parity ] );
      ( "drain",
        [ Alcotest.test_case "checkpoint failure is per-session" `Quick
            test_drain_failure_isolated_per_session;
          Alcotest.test_case "forged seq 2^40 stays small" `Quick
            test_forged_seq_stays_small;
          Alcotest.test_case "idle eviction checkpoints first" `Quick
            test_idle_eviction_checkpoints;
          Alcotest.test_case "golden lattice checkpoint" `Quick
            test_golden_serve_checkpoint;
          Alcotest.test_case "wire v2 checkpoint starts fresh" `Quick
            test_v2_checkpoint_starts_fresh ] );
      ( "control",
        [ Alcotest.test_case "stats rollup" `Quick test_control_stats;
          Alcotest.test_case "metrics exposition" `Quick
            test_control_metrics_exposition;
          Alcotest.test_case "health thresholds" `Quick
            test_control_health_thresholds;
          Alcotest.test_case "finished sessions released" `Quick
            test_finished_sessions_released ] );
      ( "budget",
        [ Alcotest.test_case "degrade isolates the neighbour" `Quick
            test_budget_degrade_isolates_neighbor;
          Alcotest.test_case "neighbour parity under all three policies"
            `Quick test_budget_policies_neighbor_parity;
          Alcotest.test_case "degraded marker survives drain and restart"
            `Quick test_degraded_marker_survives_restart;
          Alcotest.test_case "causal overflow is backpressure" `Quick
            test_causal_overflow_is_backpressure;
          Alcotest.test_case "memory budget admission control" `Quick
            test_memory_budget_admission_control ] );
      ( "transport",
        [ Alcotest.test_case "listen-once closes the listener" `Quick
            test_listen_once_closes_listener ] );
      ( "driver",
        [ Alcotest.test_case "lossy input: stream's gaps and verdicts" `Quick
            test_lossy_parity_with_stream;
          Alcotest.test_case "skipped counts stream's frames skipped" `Quick
            test_skipped_counts_frames;
          Alcotest.test_case "skipped survives a resume" `Quick
            test_skipped_survives_resume;
          Alcotest.test_case "degrade logs the marker's at_event" `Quick
            test_degrade_log_at_event;
          Alcotest.test_case "allocation per message" `Quick
            test_session_allocation ] ) ]
