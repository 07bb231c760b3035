(* The streaming trace path: decoder hardening, framed wire v3, the
   incremental reader, recovery policies and backpressure.

   The round-trip and adversarial properties here are the in-suite
   counterpart of the CI fuzz smoke ([fuzz_wire.exe]): every malformed
   input must surface as a typed [Wire.Error.t], never an exception. *)

module W = Jmpax.Wire
module E = Jmpax.Wire.Error

let error : E.t Alcotest.testable = Alcotest.testable E.pp ( = )

let msg ?(eid = 0) tid var value clock =
  Trace.Message.make ~eid ~tid ~var ~value ~mvc:(Vclock.of_list clock)

let same_payload (a : Trace.Message.t) (b : Trace.Message.t) =
  a.tid = b.tid && a.var = b.var && a.value = b.value && Vclock.equal a.mvc b.mvc

let line m =
  let b = Buffer.create 32 in
  W.add_message b m;
  Buffer.contents b

let check_payloads what expected got =
  Alcotest.(check int) (what ^ ": count") (List.length expected) (List.length got);
  List.iteri
    (fun i (a, b) ->
      if not (same_payload a b) then
        Alcotest.failf "%s: message %d differs: %s vs %s" what i
          (line a) (line b))
    (List.combine expected got)

(* {1 decode_var (the "%4_" regression)} *)

let test_decode_var_rejects_mangled () =
  let reject s expected =
    match W.decode_var s with
    | Error e -> Alcotest.check error (Printf.sprintf "reject %S" s) expected e
    | Ok v -> Alcotest.failf "accepted %S as %S" s v
  in
  (* The historical bug: [int_of_string_opt "0x4_"] is [Some 4], so the
     mangled escape silently decoded as '\x04'. *)
  reject "%4_" (E.Bad_escape "%4_");
  reject "%_4" (E.Bad_escape "%_4");
  reject "%G1" (E.Bad_escape "%G1");
  reject "%1G" (E.Bad_escape "%1G");
  reject "%-1" (E.Bad_escape "%-1");
  reject "%+4" (E.Bad_escape "%+4");
  reject "% 41" (E.Bad_escape "% 41");
  reject "a%zzb" (E.Bad_escape "a%zzb");
  reject "%4" (E.Truncated_escape "%4");
  reject "%" (E.Truncated_escape "%");
  reject "abc%2" (E.Truncated_escape "abc%2")

let test_decode_var_accepts_valid () =
  let accept s expected =
    match W.decode_var s with
    | Ok v -> Alcotest.(check string) (Printf.sprintf "decode %S" s) expected v
    | Error e -> Alcotest.failf "rejected %S: %s" s (E.to_string e)
  in
  accept "plain" "plain";
  accept "a%20b" "a b";
  accept "%2A" "*";
  accept "%2a" "*";
  accept "%0Anext" "\nnext";
  accept "%25" "%";
  accept "%00" "\x00"

let test_var_roundtrip =
  QCheck.Test.make ~name:"encode_var/decode_var round-trip" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 20) Gen.char)
    (fun v ->
      match W.decode_var (W.encode_var v) with
      | Ok v' -> v' = v
      | Error e -> QCheck.Test.fail_reportf "rejected own encoding: %s" (E.to_string e))

(* The escaping that wrote every committed trace and checkpoint: one
   [Printf] escape per byte that needs one. *)
let test_var_encoding_stable =
  QCheck.Test.make ~name:"encode_var = per-byte Printf escaping" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 20) Gen.char)
    (fun v ->
      let reference =
        String.concat ""
          (List.map
             (fun c ->
               if c = '%' || c <= ' ' || c = '\x7f' then Printf.sprintf "%%%02X" (Char.code c)
               else String.make 1 c)
             (List.of_seq (String.to_seq v)))
      in
      W.encode_var v = reference)

(* {1 Round-trip laws} *)

(* Random traces: structurally valid headers and messages (tid in range,
   clock width = nthreads, own component >= 1); causal consistency is
   irrelevant at the wire layer. *)
let gen_trace =
  QCheck.Gen.(
    let var =
      let weird = [ "x"; "y"; "a b"; "p%q"; "n\nl"; "t\tt"; "%"; "caf\xc3\xa9" ] in
      oneof [ oneofl weird; string_size ~gen:char (int_range 1 6) ]
    in
    int_range 1 4 >>= fun nthreads ->
    list_size (int_range 0 3) (pair var (int_range (-5) 5)) >>= fun init ->
    list_size (int_range 0 25)
      (int_range 0 (nthreads - 1) >>= fun tid ->
       var >>= fun v ->
       int_range (-100) 100 >>= fun value ->
       array_size (return nthreads) (int_range 0 6) >>= fun clock ->
       clock.(tid) <- max 1 clock.(tid);
       return (tid, v, value, Array.to_list clock))
    >>= fun msgs ->
    return ({ W.nthreads; init }, List.map (fun (t, v, x, c) -> msg t v x c) msgs))

let print_trace (h, ms) =
  W.encode h ms |> String.escaped

let arb_trace = QCheck.make ~print:print_trace gen_trace

let roundtrip_ok name decode doc h ms =
  match decode doc with
  | Error e -> QCheck.Test.fail_reportf "%s: %s" name (E.to_string e)
  | Ok (h', ms') ->
      h'.W.nthreads = h.W.nthreads && h'.W.init = h.W.init
      && List.length ms = List.length ms'
      && List.for_all2 same_payload ms ms'
      (* eids must record arrival order *)
      && List.for_all2 (fun i (m : Trace.Message.t) -> m.eid = i)
           (List.init (List.length ms') Fun.id)
           ms'

(* The incremental reader must be insensitive to chunk boundaries, fed
   strings ([feed]) or slices of a transport buffer ([feed_bytes]). *)
let reader_drain_items ?(bytes = false) doc ~chunks =
  let r = W.Reader.create () in
  let src = Bytes.of_string doc in
  let items = ref [] and skips = ref 0 in
  let rec drain () =
    match W.Reader.next r with
    | W.Reader.Item i ->
        items := i :: !items;
        drain ()
    | W.Reader.Skip _ ->
        incr skips;
        drain ()
    | W.Reader.Await -> ()
    | W.Reader.Eof -> ()
  in
  let rec feed pos = function
    | [] ->
        W.Reader.close r;
        drain ()
    | n :: rest ->
        let n = min n (String.length doc - pos) in
        if bytes then W.Reader.feed_bytes r src pos n
        else W.Reader.feed r (String.sub doc pos n);
        drain ();
        feed (pos + n) rest
  in
  let rec plan pos = function
    | [] -> if pos < String.length doc then [ String.length doc - pos ] else []
    | n :: rest ->
        if pos >= String.length doc then []
        else n :: plan (pos + min n (String.length doc - pos)) rest
  in
  feed 0 (plan 0 chunks);
  (List.rev !items, !skips)

let gen_chunks = QCheck.Gen.(list_size (int_range 1 200) (int_range 1 13))

let arb_trace_chunked =
  QCheck.make
    ~print:(fun ((h, ms), _) -> print_trace (h, ms))
    QCheck.Gen.(pair gen_trace gen_chunks)

let test_reader_chunk_insensitive =
  QCheck.Test.make ~name:"Reader is chunk-boundary insensitive" ~count:300
    arb_trace_chunked (fun ((h, ms), chunks) ->
      let doc = W.Framed3.encode h ms in
      let items, skips = reader_drain_items ~bytes:true doc ~chunks in
      if skips <> 0 then QCheck.Test.fail_reportf "clean stream produced %d skips" skips;
      let headers =
        List.filter_map (function W.Reader.Header h -> Some h | _ -> None) items
      in
      let msgs =
        List.filter_map (function W.Reader.Msg m -> Some m | _ -> None) items
      in
      let ends =
        List.filter_map (function W.Reader.End_of_thread t -> Some t | _ -> None) items
      in
      headers = [ h ]
      && List.length msgs = List.length ms
      && List.for_all2 same_payload ms msgs
      && List.sort compare ends = List.init h.W.nthreads Fun.id)

(* {1 Adversarial corpus} *)

(* Typed errors, never exceptions: mutate valid streams and drain both
   the strict decoder and the skipping reader. *)
let mutate rng doc =
  let pick n = Random.State.int rng n in
  let b = Bytes.of_string doc in
  let n = Bytes.length b in
  match pick 6 with
  | 0 when n > 0 ->
      (* flip one byte *)
      let i = pick n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + pick 255)));
      Bytes.to_string b
  | 1 when n > 0 -> String.sub doc 0 (pick n) (* truncate *)
  | 2 ->
      (* insert garbage *)
      let i = pick (n + 1) in
      let len = 1 + pick 8 in
      let junk = String.init len (fun _ -> Char.chr (pick 256)) in
      String.sub doc 0 i ^ junk ^ String.sub doc i (n - i)
  | 3 when n > 1 ->
      (* delete a span *)
      let i = pick n in
      let len = 1 + pick (min 16 (n - i)) in
      String.sub doc 0 i ^ String.sub doc (i + len) (n - i - len)
  | 4 when n > 0 ->
      (* duplicate a span *)
      let i = pick n in
      let len = 1 + pick (min 32 (n - i)) in
      String.sub doc 0 (i + len) ^ String.sub doc i (n - i)
  | _ -> String.init (1 + pick 64) (fun _ -> Char.chr (pick 256))

let no_exceptions_on doc ~chunks =
  (match W.decode_framed doc with Ok _ | Error _ -> ());
  let _items, _skips = reader_drain_items doc ~chunks in
  ()

(* Mutations of a small v3 stream whose names need escaping. *)
let test_adversarial_corpus () =
  let rng = Random.State.make [| 0xC0FFEE |] in
  let h, ms =
    ( { W.nthreads = 3; init = [ ("a b", 1); ("p%q", -3) ] },
      [ msg 0 "a b" 1 [ 1; 0; 0 ]; msg 2 "p%q" 2 [ 0; 0; 1 ]; msg 0 "a b" 3 [ 2; 0; 1 ] ] )
  in
  let base = W.Framed3.encode h ms in
  for _ = 1 to 1_000 do
    let doc = mutate rng base in
    let chunks = List.init (1 + Random.State.int rng 8) (fun _ -> 1 + Random.State.int rng 9) in
    match no_exceptions_on doc ~chunks with
    | () -> ()
    | exception e ->
        Alcotest.failf "decoder raised %s on %S" (Printexc.to_string e) doc
  done

let drain_all doc =
  let r = W.Reader.create () in
  W.Reader.feed r doc;
  W.Reader.close r;
  let rec go acc =
    match W.Reader.next r with
    | W.Reader.Item i -> go (`Item i :: acc)
    | W.Reader.Skip { error; bytes } -> go (`Skip (error, bytes) :: acc)
    | W.Reader.Await -> go acc
    | W.Reader.Eof -> (List.rev acc, W.Reader.stats r)
  in
  go []

let skip_errors (events, _) =
  List.filter_map (function `Skip (e, _) -> Some e | _ -> None) events

let delivered_msgs (events, _) =
  List.filter_map (function `Item (W.Reader.Msg m) -> Some m | _ -> None) events

(* {1 v1 header hardening}

   A v3 header frame carries the v1 header lines ([threads], [init]):
   a second [threads] line, or a body without one, is a typed error. *)

let expect_header_error name body expected =
  match
    skip_errors (drain_all (W.Framed3.preamble ^ W.Framed3.frame W.Framed3.kind_header body))
  with
  | [ e ] -> Alcotest.check error name expected e
  | es ->
      Alcotest.failf "%s: expected one skip, got [%s]" name
        (String.concat "; " (List.map E.to_string es))

let test_v1_duplicate_threads () =
  expect_header_error "duplicate threads" "threads 2\nthreads 2"
    (E.Duplicate_threads "threads 2");
  (* A second threads line changing the width must not rebind
     validation either. *)
  expect_header_error "duplicate threads, different count" "threads 2\nthreads 3"
    (E.Duplicate_threads "threads 3")

(* A header arriving after a message would rebind every later
   validation: a second header frame is refused and the first header's
   width stays in force. *)
let test_v1_misplaced_threads () =
  let h = { W.nthreads = 2; init = [] } in
  let enc = W.Framed3.encoder h in
  let m0 = W.Framed3.encode_message enc (msg 0 "x" 1 [ 1; 0 ]) in
  (* The skip poisons every baseline: only a full clock decodes after it. *)
  W.Framed3.reset enc;
  let m1 = W.Framed3.encode_message enc (msg 1 "x" 2 [ 1; 1 ]) in
  let drained =
    drain_all
      (W.Framed3.preamble ^ W.Framed3.encode_header h ^ m0
      ^ W.Framed3.frame W.Framed3.kind_header "threads 3"
      ^ m1)
  in
  Alcotest.(check (list error)) "second header refused" [ E.Duplicate_header_frame ]
    (skip_errors drained);
  Alcotest.(check (list int)) "both messages decoded at the first width" [ 2; 2 ]
    (List.map (fun (m : Trace.Message.t) -> Vclock.dim m.mvc) (delivered_msgs drained))

let test_v1_body_before_threads () =
  expect_header_error "init before threads" "init x 0\nthreads 1" E.Missing_threads;
  expect_header_error "no threads line" "" E.Missing_threads;
  Alcotest.(check (list error)) "message before the header" [ E.Missing_header_frame ]
    (skip_errors
       (drain_all
          (W.Framed3.preamble ^ W.Framed3.frame W.Framed3.kind_message "\x01\x00\x00\x00\x01")))

(* Splice noise between two frames: the reader skips it and counts the
   resync.  The noise may have hidden a message, so every delta
   baseline is poisoned: the thread's delta frames that follow are
   skipped too, and only its full-clock frame (here after the writer's
   [reset]) is delivered. *)
let test_framed_skip_counts () =
  let h = { W.nthreads = 1; init = [] } in
  let ms = [ msg 0 "x" 1 [ 1 ]; msg 0 "x" 2 [ 2 ]; msg 0 "x" 3 [ 3 ] ] in
  let enc = W.Framed3.encoder h in
  let f1 = W.Framed3.encode_message enc (List.nth ms 0) in
  let f2 = W.Framed3.encode_message enc (List.nth ms 1) in
  W.Framed3.reset enc;
  let f3 = W.Framed3.encode_message enc (List.nth ms 2) in
  let vardef = W.Framed3.frame W.Framed3.kind_vardef "x" in
  let lost = String.length f1 - String.length vardef + String.length f2 in
  let drained =
    drain_all (W.Framed3.preamble ^ W.Framed3.encode_header h ^ "NOISE" ^ f1 ^ f2 ^ f3)
  in
  (match fst drained with
  | `Item (W.Reader.Header _) :: `Skip (E.Lost_sync 5, "NOISE") :: _ -> ()
  | _ -> Alcotest.fail "expected the header, then one Lost_sync 5 skip of the noise");
  Alcotest.(check (list error)) "skips"
    [ E.Lost_sync 5; E.Stale_delta_baseline { tid = 0 }; E.Stale_delta_baseline { tid = 0 } ]
    (skip_errors drained);
  check_payloads "the full clock re-anchors the thread" [ List.nth ms 2 ]
    (delivered_msgs drained);
  let s = snd drained in
  Alcotest.(check int) "resyncs" 1 s.W.Reader.resyncs;
  Alcotest.(check int) "skipped frames" 2 s.W.Reader.skipped_frames;
  Alcotest.(check int) "skipped bytes" (5 + lost) s.W.Reader.skipped_bytes

(* {1 Stream driver: parity with the offline pipeline} *)

let paper_examples =
  [ ("landing (Fig. 1/5)", Tml.Programs.landing_bounded, Tml.Programs.landing_observed,
     Pastltl.Formula.landing_spec);
    ("xyz (Fig. 6)", Tml.Programs.xyz, Tml.Programs.xyz_observed,
     Pastltl.Formula.xyz_spec) ]

(* The recorded trace of one monitored run, exactly as [jmpax run -o]
   writes it. *)
let recorded_trace program sched spec =
  let config = Jmpax.Config.default () |> Jmpax.Config.with_sched sched in
  let out = Jmpax.Pipeline.check ~config ~spec program in
  let relevant = out.Jmpax.Pipeline.relevant_vars in
  let header =
    { W.nthreads = List.length program.Tml.Ast.threads;
      init = List.filter (fun (x, _) -> List.mem x relevant) program.Tml.Ast.shared }
  in
  (out, header, out.Jmpax.Pipeline.run.Tml.Vm.messages)

(* Run [doc] through the stream driver at several chunk sizes and hold
   it to [check]'s verdict and widest frontier for the same trace. *)
let check_stream_parity ~spec name out messages doc =
  List.iter
    (fun chunk_size ->
      match Jmpax.Stream.run_string ~chunk_size ~spec doc with
      | Error e -> Alcotest.failf "%s: stream failed: %s" name (E.to_string e)
      | Ok o ->
          (* The acceptance bar: the verdict line is byte-identical. *)
          Alcotest.(check string)
            (Printf.sprintf "%s (chunk %d): verdict line" name chunk_size)
            (Jmpax.Pipeline.verdict_line (Jmpax.Pipeline.predicted_violation out))
            (Jmpax.Pipeline.verdict_line o.Jmpax.Stream.s_violated);
          Alcotest.(check int)
            (Printf.sprintf "%s: peak frontier entries" name)
            out.Jmpax.Pipeline.predictive.Predict.Analyzer.stats
              .Predict.Analyzer.max_frontier_entries
            o.Jmpax.Stream.s_gc.Predict.Online.peak_frontier_entries;
          Alcotest.(check int)
            (Printf.sprintf "%s: messages" name)
            (List.length messages)
            o.Jmpax.Stream.s_stats.Jmpax.Stream.messages;
          Alcotest.(check bool)
            (Printf.sprintf "%s: complete" name)
            true
            (o.Jmpax.Stream.s_stats.Jmpax.Stream.incomplete = None))
    [ 1; 7; 64 * 1024 ]

let test_stream_matches_check () =
  let parity name program sched spec =
    let out, header, messages = recorded_trace program sched spec in
    check_stream_parity ~spec name out messages (W.Framed3.encode header messages)
  in
  List.iter
    (fun (name, program, script, spec) ->
      parity name program (Tml.Sched.of_script script) spec)
    paper_examples;
  for seed = 0 to 9 do
    parity (Printf.sprintf "landing_full, seed %d" seed) (Tml.Programs.landing_full ~rounds:2)
      (Tml.Sched.random ~seed) Pastltl.Formula.landing_spec
  done

(* A v3 document written frame by frame, as a live writer emits it, with
   the encoder's baselines reset halfway (a writer that redialed and
   continued mid-stream): the second half mixes full clocks into the
   delta stream, and the verdict must not change. *)
let test_stream_matches_check_v3 () =
  List.iter
    (fun (name, program, script, spec) ->
      let out, header, messages = recorded_trace program (Tml.Sched.of_script script) spec in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf W.Framed3.preamble;
      Buffer.add_string buf (W.Framed3.encode_header header);
      let enc = W.Framed3.encoder header in
      let half = List.length messages / 2 in
      List.iteri
        (fun i m ->
          if i = half then W.Framed3.reset enc;
          Buffer.add_string buf (W.Framed3.encode_message enc m))
        messages;
      for tid = 0 to header.W.nthreads - 1 do
        Buffer.add_string buf (W.Framed3.encode_end tid)
      done;
      check_stream_parity ~spec (name ^ " (v3, reset)") out messages (Buffer.contents buf))
    paper_examples

let test_stream_over_fifo () =
  (* The real transport: a named pipe with a writer in another domain,
     read through the same code path as [jmpax stream FIFO]. *)
  let name, program, script, spec = List.nth paper_examples 0 in
  let out, header, messages = recorded_trace program (Tml.Sched.of_script script) spec in
  let doc = W.Framed3.encode header messages in
  let dir = Filename.temp_file "jmpax" ".fifo.d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "trace.fifo" in
  Unix.mkfifo path 0o600;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Unix.rmdir dir)
    (fun () ->
      let writer =
        Domain.spawn (fun () ->
            (* Opening the write end blocks until the reader arrives. *)
            let oc = open_out_bin path in
            output_string oc doc;
            close_out oc)
      in
      let ic = open_in_bin path in
      let result =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            Jmpax.Stream.run ~spec ~read:(fun buf pos len -> input ic buf pos len) ())
      in
      Domain.join writer;
      match result with
      | Error e -> Alcotest.failf "%s over FIFO: %s" name (E.to_string e)
      | Ok o ->
          Alcotest.(check string) "FIFO verdict line"
            (Jmpax.Pipeline.verdict_line (Jmpax.Pipeline.predicted_violation out))
            (Jmpax.Pipeline.verdict_line o.Jmpax.Stream.s_violated))

(* {1 Recovery policies} *)

(* Offset of the last frame of [s], a run of whole frames. *)
let last_frame s =
  let rec go pos =
    let b i = Char.code s.[pos + 4 + i] in
    let next = pos + 9 + ((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3) in
    if next >= String.length s then pos else go next
  in
  go 0

(* Every message the reader delivers equals the original message of the
   same thread and index — a skip may lose messages, never mint a
   wrong clock — and [incomplete] names one that was lost. *)
let check_losses what messages doc (incomplete : (int * int) option) =
  let key (m : Trace.Message.t) = (m.tid, Trace.Message.seq m) in
  let delivered = delivered_msgs (drain_all doc) in
  List.iter
    (fun (m : Trace.Message.t) ->
      match List.find_opt (fun o -> key o = key m) messages with
      | Some o when same_payload o m -> ()
      | _ -> Alcotest.failf "%s: delivered %s, not an original" what (line m))
    delivered;
  match incomplete with
  | None -> Alcotest.failf "%s: the loss went unreported" what
  | Some k ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: reported (%d, %d) is an original" what (fst k) (snd k))
        true
        (List.exists (fun m -> key m = k) messages);
      Alcotest.(check bool) (what ^ ": reported message was lost") false
        (List.exists (fun m -> key m = k) delivered)

(* A landing trace with one message frame corrupted in transit in a way
   that survives framing: the frame is well-delimited but its thread id
   byte now reads 9, out of range. *)
let corrupted_landing () =
  let _, program, script, spec = List.nth paper_examples 0 in
  let _, header, messages = recorded_trace program (Tml.Sched.of_script script) spec in
  (* The victim must have a successor in its own thread, otherwise the
     loss is unobservable (nothing ever waits on the gap). *)
  let victim =
    let rec pick = function
      | (m : Trace.Message.t) :: rest
        when List.exists (fun (m' : Trace.Message.t) -> m'.tid = m.tid) rest ->
          m
      | _ :: rest -> pick rest
      | [] -> Alcotest.fail "no thread emits two messages"
    in
    pick messages
  in
  let enc = W.Framed3.encoder header in
  let buf = Buffer.create 1024 in
  let mangled = ref "" in
  Buffer.add_string buf W.Framed3.preamble;
  Buffer.add_string buf (W.Framed3.encode_header header);
  List.iter
    (fun (m : Trace.Message.t) ->
      let frames = W.Framed3.encode_message enc m in
      if m == victim then begin
        (* the message frame's payload: flags byte, then the tid *)
        let b = Bytes.of_string frames in
        let at = last_frame frames in
        Bytes.set b (at + 9) '\x09';
        mangled := Bytes.sub_string b at (Bytes.length b - at);
        Buffer.add_bytes buf b
      end
      else Buffer.add_string buf frames)
    messages;
  for tid = 0 to header.W.nthreads - 1 do
    Buffer.add_string buf (W.Framed3.encode_end tid)
  done;
  (Buffer.contents buf, messages, victim, !mangled)

let landing_spec = Pastltl.Formula.landing_spec

let test_recovery_fail () =
  let doc, _, _, _ = corrupted_landing () in
  match Jmpax.Stream.run_string ~spec:landing_spec doc with
  | Error (E.Tid_out_of_range { tid = 9; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "fail policy accepted a corrupt frame"

(* The skip poisons every delta baseline, so the message frames after
   the victim are skipped as stale: the verdict covers the prefix, and
   the report names a message that never arrived. *)
let test_recovery_skip () =
  let doc, messages, victim, _ = corrupted_landing () in
  match Jmpax.Stream.run_string ~recovery:Jmpax.Config.Skip ~spec:landing_spec doc with
  | Error e -> Alcotest.failf "skip policy failed: %s" (E.to_string e)
  | Ok o ->
      let s = o.Jmpax.Stream.s_stats in
      let rec after = function
        | m :: rest -> if m == victim then List.length rest else after rest
        | [] -> 0
      in
      Alcotest.(check int) "the victim and every later message frame skipped"
        (1 + after messages) s.Jmpax.Stream.skipped_frames;
      check_losses "skip" messages doc s.Jmpax.Stream.incomplete

let test_recovery_quarantine () =
  let doc, _, _, mangled = corrupted_landing () in
  let bin = Buffer.create 64 in
  match
    Jmpax.Stream.run_string ~recovery:Jmpax.Config.Quarantine
      ~quarantine:(Buffer.add_string bin) ~spec:landing_spec doc
  with
  | Error e -> Alcotest.failf "quarantine policy failed: %s" (E.to_string e)
  | Ok o ->
      let s = o.Jmpax.Stream.s_stats in
      Alcotest.(check int) "quarantined bytes" (Buffer.length bin)
        s.Jmpax.Stream.quarantined_bytes;
      let q = Buffer.contents bin in
      Alcotest.(check bool) "quarantine preserves the mangled frame first" true
        (String.length q >= String.length mangled
        && String.sub q 0 (String.length mangled) = mangled)

(* Raw garbage between frames (not a lost frame).  Under wire v3 it
   poisons every delta baseline, so the messages after it are lost
   until a full clock; the stream still completes, reports what it
   lost, and never delivers a wrong clock. *)
let test_recovery_skip_noise () =
  let _, program, script, spec = List.nth paper_examples 0 in
  let _, header, messages = recorded_trace program (Tml.Sched.of_script script) spec in
  let enc = W.Framed3.encoder header in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf W.Framed3.preamble;
  Buffer.add_string buf (W.Framed3.encode_header header);
  List.iteri
    (fun i m ->
      if i = 1 then Buffer.add_string buf "\x01garbage between frames\x02";
      Buffer.add_string buf (W.Framed3.encode_message enc m))
    messages;
  for tid = 0 to header.W.nthreads - 1 do
    Buffer.add_string buf (W.Framed3.encode_end tid)
  done;
  let doc = Buffer.contents buf in
  match Jmpax.Stream.run_string ~recovery:Jmpax.Config.Skip ~spec doc with
  | Error e -> Alcotest.failf "noise: %s" (E.to_string e)
  | Ok o ->
      let s = o.Jmpax.Stream.s_stats in
      Alcotest.(check bool) "resynced" true (s.Jmpax.Stream.resyncs >= 1);
      check_losses "noise" messages doc s.Jmpax.Stream.incomplete

(* {1 Backpressure} *)

(* A single-thread stream delivered in reverse order: every message but
   the last is out of order. *)
let reversed_singlethread n =
  let header = { W.nthreads = 1; init = [ ("x", 0) ] } in
  let ms = List.init n (fun i -> msg 0 "x" (i + 1) [ i + 1 ]) in
  (header, List.rev ms)

(* Reversed, four messages hold three before the last one releases
   them: a bound of 3 absorbs that, a bound of 2 fails at the third
   held message and reports it. *)
let test_backpressure_one_past_the_bound () =
  let header, rev_ms = reversed_singlethread 4 in
  let doc = W.Framed3.encode header rev_ms in
  (match Jmpax.Stream.run_string ~max_buffered:2 ~spec:Pastltl.Formula.True doc with
  | Error (E.Backpressure { buffered; limit }) ->
      Alcotest.(check int) "limit" 2 limit;
      Alcotest.(check int) "held, one past the bound" 3 buffered
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "bound of 2 absorbed 3 held messages");
  match Jmpax.Stream.run_string ~max_buffered:3 ~spec:Pastltl.Formula.True doc with
  | Ok o ->
      Alcotest.(check int) "peak at the bound" 3
        o.Jmpax.Stream.s_stats.Jmpax.Stream.peak_buffered
  | Error e -> Alcotest.failf "bound 3: %s" (E.to_string e)

let test_stream_backpressure_enforced () =
  let header, rev_ms = reversed_singlethread 6 in
  let doc = W.Framed3.encode header rev_ms in
  (match Jmpax.Stream.run_string ~max_buffered:2 ~spec:Pastltl.Formula.True doc with
  | Error (E.Backpressure { limit = 2; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "backpressure bound not enforced");
  (match Jmpax.Stream.run_string ~max_buffered:(-1) ~spec:Pastltl.Formula.True doc with
  | _ -> Alcotest.fail "a negative bound was accepted"
  | exception Invalid_argument _ -> ());
  (* A generous bound passes, and reports the true peak. *)
  match Jmpax.Stream.run_string ~max_buffered:16 ~spec:Pastltl.Formula.True doc with
  | Error e -> Alcotest.failf "bound 16: %s" (E.to_string e)
  | Ok o ->
      Alcotest.(check int) "peak out-of-order" 5
        o.Jmpax.Stream.s_stats.Jmpax.Stream.peak_buffered

let with_metrics f =
  Telemetry.Metrics.reset ();
  (* Both tiers, as [--metrics] would: the GC test below asserts the
     deep [online.gc_removed] counter. *)
  Telemetry.Metrics.enable_deep ();
  Fun.protect ~finally:Telemetry.Metrics.disable f

let test_stream_max_buffered_gauge () =
  let header, rev_ms = reversed_singlethread 4 in
  let doc = W.Framed3.encode header rev_ms in
  with_metrics (fun () ->
      (match Jmpax.Stream.run_string ~max_buffered:8 ~spec:Pastltl.Formula.True doc with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "stream: %s" (E.to_string e));
      let dump = Telemetry.Metrics.to_text () in
      let has needle =
        let n = String.length needle and h = String.length dump in
        let rec at i = i + n <= h && (String.sub dump i n = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "gauge in dump" true (has "stream.max_buffered = 8");
      Alcotest.(check bool) "peak in dump" true (has "stream.peak_buffered = 3"))

(* {1 Online GC (the quadratic re-scan fix)} *)

let test_online_gc_collects_store () =
  let _, program, script, spec = List.nth paper_examples 1 in
  let config =
    Jmpax.Config.default () |> Jmpax.Config.with_sched (Tml.Sched.of_script script)
  in
  let out = Jmpax.Pipeline.check ~config ~spec program in
  let messages = out.Jmpax.Pipeline.run.Tml.Vm.messages in
  let relevant = out.Jmpax.Pipeline.relevant_vars in
  let init =
    List.filter (fun (x, _) -> List.mem x relevant) program.Tml.Ast.shared
  in
  with_metrics (fun () ->
      let o =
        Predict.Online.create
          ~nthreads:(List.length program.Tml.Ast.threads)
          ~init ~spec ()
      in
      Predict.Online.feed_all o messages;
      Predict.Online.finish o;
      (* Every consumed message is collected exactly once: the gc counter
         equals the message count (no re-scans, no leftovers). *)
      Alcotest.(check int) "store fully collected" 0 (Predict.Online.buffered o);
      Alcotest.(check int) "each message removed exactly once"
        (List.length messages)
        (Telemetry.Metrics.value (Telemetry.Metrics.counter "online.gc_removed")))

(* {1 Wire v3: delta-encoded binary clocks} *)

let test_roundtrip_v3 =
  QCheck.Test.make ~name:"decode_framed (Framed3.encode h ms) = Ok (h, ms)"
    ~count:300 arb_trace (fun (h, ms) ->
      roundtrip_ok "v3" W.decode_framed (W.Framed3.encode h ms) h ms)

let test_reader_chunk_insensitive_v3 =
  QCheck.Test.make ~name:"Reader is chunk-boundary insensitive (v3)" ~count:300
    arb_trace_chunked (fun ((h, ms), chunks) ->
      let doc = W.Framed3.encode h ms in
      let items, skips = reader_drain_items doc ~chunks in
      if skips <> 0 then
        QCheck.Test.fail_reportf "clean v3 stream produced %d skips" skips;
      let headers =
        List.filter_map (function W.Reader.Header h -> Some h | _ -> None) items
      in
      let msgs =
        List.filter_map (function W.Reader.Msg m -> Some m | _ -> None) items
      in
      let ends =
        List.filter_map (function W.Reader.End_of_thread t -> Some t | _ -> None) items
      in
      headers = [ h ]
      && List.length msgs = List.length ms
      && List.for_all2 same_payload ms msgs
      && List.sort compare ends = List.init h.W.nthreads Fun.id)

let test_v3_deterministic () =
  let h = { W.nthreads = 2; init = [ ("x", 0) ] } in
  let ms = [ msg 0 "x" 1 [ 1; 0 ]; msg 1 "x" 2 [ 1; 1 ]; msg 0 "x" 3 [ 2; 1 ] ] in
  (* Determinism is what keeps replay-from-zero reconnects sound: the
     redialled writer's bytes must match what the reader already saw. *)
  Alcotest.(check string) "same input, same bytes" (W.Framed3.encode h ms)
    (W.Framed3.encode h ms)

(* A hand-assembled v3 stream: preamble, header, then [frames]. *)
let v3_doc h frames =
  W.Framed3.preamble ^ W.Framed3.encode_header h ^ String.concat "" frames

let test_v3_truncated_varint () =
  let h = { W.nthreads = 1; init = [] } in
  (* flags byte says "full clock", then a varint that never ends. *)
  let doc =
    v3_doc h [ W.Framed3.frame W.Framed3.kind_message "\x01\xff" ]
  in
  let events = drain_all doc in
  (match skip_errors events with
  | [ E.Bad_varint _ ] -> ()
  | es ->
      Alcotest.failf "expected one Bad_varint skip, got [%s]"
        (String.concat "; " (List.map E.to_string es)));
  Alcotest.(check int) "nothing delivered" 0 (List.length (delivered_msgs events))

let test_v3_stale_baseline_after_skip () =
  (* Skipped bytes may have hidden a message, so every delta baseline is
     poisoned: the next delta frame must error, and only a full clock
     (here: the writer's [reset]) re-anchors the thread. *)
  let h = { W.nthreads = 1; init = [ ("x", 0) ] } in
  let m1 = msg ~eid:0 0 "x" 1 [ 1 ] in
  let m2 = msg ~eid:1 0 "x" 2 [ 2 ] in
  let m3 = msg ~eid:2 0 "x" 3 [ 3 ] in
  let enc = W.Framed3.encoder h in
  let f1 = W.Framed3.encode_message enc m1 in
  let f2 = W.Framed3.encode_message enc m2 in
  W.Framed3.reset enc;
  let f3 = W.Framed3.encode_message enc m3 in
  let doc = v3_doc h [ f1; "NOISE"; f2; f3; W.Framed3.encode_end 0 ] in
  let events = drain_all doc in
  (match skip_errors events with
  | [ E.Lost_sync 5; E.Stale_delta_baseline { tid = 0 } ] -> ()
  | es ->
      Alcotest.failf "expected Lost_sync then Stale_delta_baseline, got [%s]"
        (String.concat "; " (List.map E.to_string es)));
  (* m2 is lost with the baseline; the full-clock m3 still lands with
     the right absolute clock. *)
  check_payloads "survivors" [ m1; m3 ] (delivered_msgs events)

(* A resync can swallow the vardef frame a delta names.  The thread's
   baseline is stale by then, and that is what the frame reports: as an
   unknown variable id the loss would stay invisible to the stream
   driver, which counts a stale baseline as a gap in the thread. *)
let test_v3_stale_before_unknown_var () =
  let h = { W.nthreads = 1; init = [ ("x", 0); ("y", 0) ] } in
  let m1 = msg ~eid:0 0 "x" 1 [ 1 ] and m2 = msg ~eid:1 0 "y" 2 [ 2 ] in
  let enc = W.Framed3.encoder h in
  let f1 = W.Framed3.encode_message enc m1 in
  let f2 = W.Framed3.encode_message enc m2 in
  let vardef = W.Framed3.frame W.Framed3.kind_vardef "y" in
  Alcotest.(check string) "the delta's frames start with its vardef" vardef
    (String.sub f2 0 (String.length vardef));
  let delta = String.sub f2 (String.length vardef) (String.length f2 - String.length vardef) in
  let doc = v3_doc h [ f1; "NOISE"; delta; W.Framed3.encode_end 0 ] in
  Alcotest.(check (list error)) "skips"
    [ E.Lost_sync 5; E.Stale_delta_baseline { tid = 0 } ]
    (skip_errors (drain_all doc));
  match Jmpax.Stream.run_string ~recovery:Jmpax.Config.Skip ~spec:Pastltl.Formula.True doc with
  | Ok o ->
      Alcotest.(check (option (pair int int))) "the stream reports the gap"
        (Some (0, 2)) o.Jmpax.Stream.s_stats.Jmpax.Stream.incomplete
  | Error e -> Alcotest.failf "stream: %s" (E.to_string e)

(* Frames of the retired text wire v2 (kinds 'H', 'M' and 'E', same
   envelope) inside a v3 stream are unknown kinds: skipped, never
   decoded. *)
let test_v2_frames_are_unknown_kinds () =
  let h = { W.nthreads = 1; init = [] } in
  let doc =
    v3_doc h
      [ W.Framed3.frame 'H' "threads 1";
        W.Framed3.frame 'M' "msg 0 x 1 (1)";
        W.Framed3.frame 'E' "end 0" ]
  in
  (match W.decode_framed doc with
  | Error e -> Alcotest.check error "strict decode" (E.Unknown_frame_kind (Char.code 'H')) e
  | Ok _ -> Alcotest.fail "v2 frames decoded");
  let drained = drain_all doc in
  Alcotest.(check (list error)) "reader skips"
    (List.map (fun k -> E.Unknown_frame_kind (Char.code k)) [ 'H'; 'M'; 'E' ])
    (skip_errors drained);
  Alcotest.(check int) "nothing delivered" 0 (List.length (delivered_msgs drained))

(* A whole wire-v2 document is refused with its preamble in the error:
   the stream driver reports a bad preamble, which [jmpax stream] exits
   3 on. *)
let test_v2_document_refused () =
  let v2 =
    "jmpax-wire 2\n"
    ^ W.Framed3.frame 'H' "threads 1\ninit x 0"
    ^ W.Framed3.frame 'M' "msg 0 x 1 (1)"
    ^ W.Framed3.frame 'E' "end 0"
  in
  match Jmpax.Stream.run_string ~spec:Pastltl.Formula.True v2 with
  | Error (E.Bad_preamble _ as e) ->
      let text = E.to_string e and needle = "jmpax-wire 2" in
      let n = String.length needle in
      let rec at i = i + n <= String.length text && (String.sub text i n = needle || at (i + 1)) in
      Alcotest.(check bool) ("stream: " ^ text) true (at 0)
  | Error e -> Alcotest.failf "stream: wrong error %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "stream decoded a v2 document"

(* The default format is v3, whose reader state grows with the square
   of the width: a header over [Framed3.max_threads] is refused before
   anything is written ([jmpax run] exits 3 and names --format v1), and
   v1 text takes it. *)
let test_write_file_width () =
  let wide = W.Framed3.max_threads + 1 in
  let h = { W.nthreads = wide; init = [ ("x", 0) ] } in
  let ms = [ msg 0 "x" 1 (1 :: List.init (wide - 1) (fun _ -> 0)) ] in
  let path = Filename.temp_file "jmpax" ".trace" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match W.write_file path h ms with
      | Error e ->
          Alcotest.check error "default format"
            (E.Bad_thread_count (Printf.sprintf "threads %d (v3 limit 4096)" wide))
            e
      | Ok () -> Alcotest.fail "v3 written past the thread limit");
      Alcotest.(check bool) "nothing written" false (Sys.file_exists path);
      (match W.write_file ~format:W.V1 path h ms with
      | Ok () -> ()
      | Error e -> Alcotest.failf "v1: %s" (E.to_string e));
      Alcotest.(check string) "v1 text written" (W.encode h ms)
        (In_channel.with_open_bin path In_channel.input_all))

(* Found by the fuzzer: a forged v3 header claiming a huge thread count
   must be a typed error, not a quadratic allocation. *)
let test_v3_thread_limit () =
  let forged =
    W.Framed3.preamble ^ W.Framed3.frame W.Framed3.kind_header "threads 999999999"
  in
  (match skip_errors (drain_all forged) with
  | [ E.Bad_thread_count _ ] -> ()
  | es ->
      Alcotest.failf "expected Bad_thread_count, got [%s]"
        (String.concat "; " (List.map E.to_string es)));
  (* At the limit it still works end to end. *)
  let h = { W.nthreads = W.Framed3.max_threads; init = [] } in
  let m = msg 0 "x" 1 (1 :: List.init (W.Framed3.max_threads - 1) (fun _ -> 0)) in
  (match W.decode_framed (W.Framed3.encode h [ m ]) with
  | Ok (h', [ m' ]) ->
      Alcotest.(check int) "width survives" h.W.nthreads h'.W.nthreads;
      Alcotest.(check bool) "payload survives" true (same_payload m m')
  | Ok _ -> Alcotest.fail "wrong message count"
  | Error e -> Alcotest.failf "limit-width stream rejected: %s" (E.to_string e));
  (* One past it, the encoder refuses outright. *)
  let over = { W.nthreads = W.Framed3.max_threads + 1; init = [] } in
  match W.Framed3.encoder over with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encoder accepted a clock wider than the v3 limit"

let test_v3_unknown_var_id () =
  let h = { W.nthreads = 1; init = [] } in
  (* full clock, tid 0, var id 7 (never defined), value 0, clock [1] *)
  let payload = "\x01\x00\x07\x00\x01" in
  let doc = v3_doc h [ W.Framed3.frame W.Framed3.kind_message payload ] in
  let events = drain_all doc in
  match skip_errors events with
  | [ E.Unknown_var_id { id = 7; defined = 0 } ] -> ()
  | es ->
      Alcotest.failf "expected Unknown_var_id, got [%s]"
        (String.concat "; " (List.map E.to_string es))

(* Wide clocks, sparse updates — the case the delta encoding exists
   for. *)
let test_v3_wide_clocks_are_smaller () =
  let nthreads = 64 in
  let h = { W.nthreads; init = [ ("x", 0) ] } in
  (* Per the paper's Algorithm A, a thread's clock changes only in its
     own entry between its consecutive messages, plus the entries it
     learns when reading a peer's write: sparse deltas, wide clocks. *)
  let clocks = Array.init nthreads (fun _ -> Array.make nthreads 0) in
  let ms =
    List.init 512 (fun i ->
        let tid = i * 7 mod nthreads in
        let c = clocks.(tid) in
        c.(tid) <- c.(tid) + 1;
        if i mod 8 = 0 then begin
          let peer = (tid + (i mod 13) + 1) mod nthreads in
          c.(peer) <- max c.(peer) clocks.(peer).(peer)
        end;
        msg ~eid:i tid "x" i (Array.to_list c))
  in
  (* v1 text: every clock entry in decimal, as the retired wire v2
     framed it (plus 9 bytes a frame). *)
  let text = W.encode h ms and v3 = W.Framed3.encode h ms in
  if String.length v3 * 3 > String.length text then
    Alcotest.failf "v3 not 3x smaller than text on wide sparse clocks: %d vs %d bytes"
      (String.length v3) (String.length text);
  roundtrip_ok "wide" W.decode_framed v3 h ms |> ignore

(* {2 Varint edge cases}

   A one-thread stream whose only message carries a full clock, the
   clock entry being the varint under test.  The expected errors are
   the recursive decoder's, which the loop must keep. *)

let varint_doc varint =
  let h = { W.nthreads = 1; init = [] } in
  v3_doc h
    [ W.Framed3.frame W.Framed3.kind_vardef (W.encode_var "x");
      (* full clock, tid 0, var id 0, value 0, then the clock entry *)
      W.Framed3.frame W.Framed3.kind_message ("\x01\x00\x00\x00" ^ varint) ]

let expect_varint_error label varint expected =
  let events = drain_all (varint_doc varint) in
  Alcotest.(check (list error)) label [ E.Bad_varint expected ] (skip_errors events);
  Alcotest.(check int) (label ^ ": nothing delivered") 0
    (List.length (delivered_msgs events))

let test_v3_varint_edges () =
  (* The largest 9-byte varint: 62 one bits, [max_int]. *)
  let largest = String.make 8 '\xff' ^ "\x3f" in
  (match delivered_msgs (drain_all (varint_doc largest)) with
  | [ m ] ->
      Alcotest.(check (list int)) "largest decodes" [ max_int ]
        (Vclock.to_list m.Trace.Message.mvc)
  | ms -> Alcotest.failf "largest: %d messages delivered" (List.length ms));
  (* [max_int + 1] would set the sign bit. *)
  expect_varint_error "sign bit" (String.make 8 '\x80' ^ "\x40") "clock entry: overflow";
  (* A continuation bit on the 9th byte asks for a 10th. *)
  expect_varint_error "10th byte"
    (String.make 8 '\xff' ^ "\xbf\x01")
    "clock entry: overflow";
  for k = 1 to String.length largest - 1 do
    expect_varint_error
      (Printf.sprintf "truncated after byte %d" k)
      (String.sub largest 0 k) "clock entry: truncated"
  done

(* {2 Truncation at every varint field}

   A frame cut right before one of its varint fields leaves the decoder
   at the payload's end when it asks for that field: one-byte varints
   take a fast path with a single bounds test, which must report the
   same [Bad_varint "<field>: truncated"] as the loop.  A one-byte
   varint that ends the payload must still decode. *)

let test_v3_truncated_fields () =
  let h = { W.nthreads = 2; init = [] } in
  let vardef = W.Framed3.frame W.Framed3.kind_vardef (W.encode_var "x") in
  let frame_doc kind payload = v3_doc h [ vardef; W.Framed3.frame kind payload ] in
  (* Delta frame of thread 0: flags 0, tid 0, var 0, value 1000 (zigzag
     2000, a two-byte varint), one delta at index 0 (gap 0) of +1
     (zigzag 2).  Full-clock frame: flags 1, tid 0, var 0, value 0, then
     the clock [1; 0]. *)
  let delta = "\x00\x00\x00\xd0\x0f\x01\x00\x02" in
  let full = "\x01\x00\x00\x00\x01\x00" in
  let cuts =
    [ (delta, 1, "thread id");
      (delta, 2, "variable id");
      (delta, 3, "value");
      (delta, 4, "value");
      (delta, 5, "delta count");
      (delta, 6, "delta index");
      (delta, 7, "delta value");
      (full, 4, "clock entry");
      (full, 5, "clock entry") ]
  in
  List.iter
    (fun (payload, cut, field) ->
      let label = Printf.sprintf "message cut before %s (%d bytes)" field cut in
      let events = drain_all (frame_doc W.Framed3.kind_message (String.sub payload 0 cut)) in
      Alcotest.(check (list error)) label
        [ E.Bad_varint (field ^ ": truncated") ]
        (skip_errors events);
      Alcotest.(check int) (label ^ ": nothing delivered") 0
        (List.length (delivered_msgs events)))
    cuts;
  Alcotest.(check (list error)) "end frame cut before its tid"
    [ E.Bad_varint "end tid: truncated" ]
    (skip_errors (drain_all (frame_doc W.Framed3.kind_end "")));
  (* Uncut, each payload ends in a one-byte varint. *)
  List.iter
    (fun (label, payload, value, clock) ->
      match drain_all (frame_doc W.Framed3.kind_message payload) with
      | ([ `Item (W.Reader.Header _); `Item (W.Reader.Msg m) ], _) ->
          Alcotest.(check int) (label ^ ": value") value m.Trace.Message.value;
          Alcotest.(check (list int)) (label ^ ": clock") clock (Vclock.to_list m.Trace.Message.mvc)
      | events ->
          Alcotest.failf "%s: %d skips, %d messages" label
            (List.length (skip_errors events))
            (List.length (delivered_msgs events)))
    [ ("delta frame", delta, 1000, [ 1; 0 ]); ("full frame", full, 0, [ 1; 0 ]) ];
  match skip_errors (drain_all (frame_doc W.Framed3.kind_end "\x01")) with
  | [] -> ()
  | e :: _ -> Alcotest.failf "one-byte end tid refused: %s" (E.to_string e)

(* {2 Decode allocation}

   Draining a reader over a 64-thread all-events v3 stream of the
   benchmark's lock-counter shape allocates the [Message.t], its clock
   and the [Item (Msg _)] event per message: 83.9 words here.  The
   budget leaves 3 words over that, so neither a result wrapper around
   a decoded message (4 words) nor closures built per frame (7) can
   come back unnoticed. *)

let test_v3_decode_allocation () =
  let threads = 64 in
  let program = Tml.Parser.parse_program (Lock_counter.source ~threads ~iters:4 ~nops:0) in
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.random ~seed:1) program in
  let exec = Option.get r.Tml.Vm.exec in
  let messages = Predict.Engine.messages_of_exec exec in
  let h = { W.nthreads = threads; init = Trace.Exec.init exec } in
  let reader = W.Reader.create () in
  W.Reader.feed reader (W.Framed3.encode h messages);
  W.Reader.close reader;
  let count = ref 0 and eof = ref false in
  let before = Gc.minor_words () in
  while not !eof do
    match W.Reader.next reader with
    | W.Reader.Item (W.Reader.Msg _) -> incr count
    | W.Reader.Item _ | W.Reader.Await -> ()
    | W.Reader.Skip _ -> Alcotest.fail "skip on a well-formed stream"
    | W.Reader.Eof -> eof := true
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int !count in
  Alcotest.(check int) "every message decoded" (List.length messages) !count;
  let budget = float_of_int (threads + 23) in
  if words > budget then
    Alcotest.failf "%.1f minor words per decoded message (budget %.0f)" words budget

(* The stream path per message: [Stream.run_string] with the race and
   atomicity engines over a 64-thread all-events lock-counter trace
   allocates 136.9 minor words per message (best of three runs; the
   decode is 83.9 of them), 137.0 before the per-message driver was
   shared with the serve sessions.  The budget leaves 1.1 words over
   that, so a result wrapper (2 words) or a closure (3 or more) built
   per message in the driver fails it. *)
let stream_alloc_budget = 138.1

let test_stream_allocation () =
  let threads = 64 in
  let program = Tml.Parser.parse_program (Lock_counter.source ~threads ~iters:8 ~nops:0) in
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.random ~seed:1) program in
  let exec = Option.get r.Tml.Vm.exec in
  let messages = Predict.Engine.messages_of_exec exec in
  let doc = W.Framed3.encode { W.nthreads = threads; init = Trace.Exec.init exec } messages in
  let engines = [ Predict.Engine.Race; Predict.Engine.Atomicity ] in
  let run () =
    let before = Gc.minor_words () in
    (match Jmpax.Stream.run_string ~engines ~spec:Pastltl.Formula.True doc with
    | Ok o ->
        Alcotest.(check int) "every message streamed" (List.length messages)
          o.Jmpax.Stream.s_stats.Jmpax.Stream.messages
    | Error e -> Alcotest.failf "stream: %s" (E.to_string e));
    (Gc.minor_words () -. before) /. float_of_int (List.length messages)
  in
  let words = List.fold_left min infinity (List.init 3 (fun _ -> run ())) in
  if words > stream_alloc_budget then
    Alcotest.failf "%.1f minor words per streamed message (budget %.1f)" words
      stream_alloc_budget

(* The lattice over a wide all-events trace is bounded by the frontier
   budget: a 16-thread lock-counter run recorded with every event (768
   messages) under [1 == 1] needs 11,152 cuts on one level.  With a
   10,000-cut budget the stream fails with [Budget.Exceeded], or sheds
   the lattice and says so in the verdict. *)
let test_stream_wide_trace_bounded () =
  let threads = 16 in
  let program = Tml.Parser.parse_program (Lock_counter.source ~threads ~iters:8 ~nops:0) in
  let r =
    Tml.Vm.run_program ~relevance:Mvc.Relevance.all_events ~sched:(Tml.Sched.random ~seed:1)
      program
  in
  let messages = r.Tml.Vm.messages in
  Alcotest.(check int) "messages" 768 (List.length messages);
  let doc =
    W.Framed3.encode { W.nthreads = threads; init = program.Tml.Ast.shared } messages
  in
  let budget = Jmpax.Budget.limits ~max_frontier_cuts:10_000 () in
  let spec = Pastltl.Fparser.parse "1 == 1" in
  let run on_overload = Jmpax.Stream.run_string ~budget ~on_overload ~spec doc in
  (match run Jmpax.Budget.Fail with
  | exception Jmpax.Budget.Exceeded b ->
      Alcotest.(check string) "breach" "frontier budget exceeded: 11152 cuts > limit 10000"
        (Jmpax.Budget.breach_message b)
  | _ -> Alcotest.fail "the frontier budget did not stop the lattice");
  match run Jmpax.Budget.Degrade with
  | Ok { Jmpax.Stream.s_degraded = Some d; _ } ->
      Alcotest.(check string) "degraded verdict"
        "predictive verdict (JMPaX): degraded(from=lattice,reason=frontier_budget,at_event=762)"
        (Jmpax.Pipeline.degraded_verdict_line d)
  | Ok _ -> Alcotest.fail "never degraded"
  | Error e -> Alcotest.failf "stream: %s" (E.to_string e)

(* {1 Frame-size symmetry (the Frame_too_large asymmetry fix)} *)

let test_frame_boundary () =
  let limit = W.Framed3.default_max_frame in
  let at = String.make limit 'a' and over = String.make (limit + 1) 'a' in
  (* Exactly at the reader's limit: both sides accept. *)
  (* sentinel + kind + u32 length + trailing newline *)
  let overhead = String.length W.Framed3.sentinel + 6 in
  Alcotest.(check int) "framed length" (limit + overhead)
    (String.length (W.Framed3.frame 'm' at));
  (* One byte over: the encoder raises with the reader's limit instead
     of emitting an undecodable frame. *)
  (match W.Framed3.frame 'm' over with
  | exception W.Frame_overflow { kind = 'm'; length; limit = l } ->
      Alcotest.(check int) "exn length" (limit + 1) length;
      Alcotest.(check int) "exn limit" limit l
  | _ -> Alcotest.fail "frame over the limit did not raise");
  (* The high-level encoders inherit the check: a message whose encoding
     cannot fit any legal frame raises instead of corrupting the stream. *)
  let h = { W.nthreads = 1; init = [] } in
  let giant = msg 0 (String.make (limit + 1) 'v') 1 [ 1 ] in
  match W.Framed3.encode h [ giant ] with
  | exception W.Frame_overflow _ -> ()
  | _ -> Alcotest.fail "v3 encode accepted an overflowing message"

(* A frame at exactly the limit must round-trip through the reader: the
   boundary is inclusive on both sides.  Here it is the vardef frame of
   a limit-long variable name. *)
let test_frame_boundary_roundtrip () =
  let limit = W.Framed3.default_max_frame in
  let m = msg 0 (String.make limit 'v') 1 [ 1 ] in
  Alcotest.(check int) "payload is exactly the limit" limit
    (String.length (W.encode_var m.Trace.Message.var));
  let h = { W.nthreads = 1; init = [] } in
  match W.decode_framed (W.Framed3.encode h [ m ]) with
  | Ok (_, [ m' ]) ->
      Alcotest.(check bool) "payload survives" true (same_payload m m')
  | Ok (_, ms) -> Alcotest.failf "expected 1 message, got %d" (List.length ms)
  | Error e -> Alcotest.failf "limit-sized frame rejected: %s" (E.to_string e)

let test_adversarial_corpus_v3 () =
  let rng = Random.State.make [| 0xBEEF3 |] in
  let h, ms =
    ( { W.nthreads = 2; init = [ ("x", 0); ("odd var", 1) ] },
      [ msg 0 "x" 1 [ 1; 0 ]; msg 1 "odd var" 2 [ 0; 1 ]; msg 0 "x" 3 [ 2; 0 ] ] )
  in
  let base = W.Framed3.encode h ms in
  for _ = 1 to 1_000 do
    let doc = mutate rng base in
    let chunks = List.init (1 + Random.State.int rng 8) (fun _ -> 1 + Random.State.int rng 9) in
    match no_exceptions_on doc ~chunks with
    | () -> ()
    | exception e ->
        Alcotest.failf "v3 decoder raised %s on %S" (Printexc.to_string e) doc
  done

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ test_var_roundtrip;
      test_reader_chunk_insensitive;
      test_roundtrip_v3;
      test_reader_chunk_insensitive_v3;
      test_var_encoding_stable ]

let () =
  Alcotest.run "wire"
    [ ( "decode_var",
        [ Alcotest.test_case "rejects mangled escapes" `Quick
            test_decode_var_rejects_mangled;
          Alcotest.test_case "accepts valid escapes" `Quick test_decode_var_accepts_valid ] );
      ( "v1 hardening",
        [ Alcotest.test_case "duplicate threads" `Quick test_v1_duplicate_threads;
          Alcotest.test_case "misplaced threads" `Quick test_v1_misplaced_threads;
          Alcotest.test_case "body before threads" `Quick test_v1_body_before_threads ] );
      ("laws", qcheck_tests);
      ( "adversarial",
        [ Alcotest.test_case "mutations never raise" `Quick test_adversarial_corpus;
          Alcotest.test_case "v3 mutations never raise" `Quick
            test_adversarial_corpus_v3;
          Alcotest.test_case "resync counts" `Quick test_framed_skip_counts ] );
      ( "wire v3",
        [ Alcotest.test_case "deterministic encoding" `Quick test_v3_deterministic;
          Alcotest.test_case "truncated varint" `Quick test_v3_truncated_varint;
          Alcotest.test_case "stale baseline after skip" `Quick
            test_v3_stale_baseline_after_skip;
          Alcotest.test_case "stale baseline before unknown var" `Quick
            test_v3_stale_before_unknown_var;
          Alcotest.test_case "v2 frames are unknown kinds" `Quick
            test_v2_frames_are_unknown_kinds;
          Alcotest.test_case "v2 document refused" `Quick test_v2_document_refused;
          Alcotest.test_case "write_file refuses a v3 width" `Quick
            test_write_file_width;
          Alcotest.test_case "unknown var id" `Quick test_v3_unknown_var_id;
          Alcotest.test_case "thread-count ceiling" `Quick test_v3_thread_limit;
          Alcotest.test_case "wide sparse clocks shrink 3x" `Quick
            test_v3_wide_clocks_are_smaller;
          Alcotest.test_case "varint edges" `Quick test_v3_varint_edges;
          Alcotest.test_case "truncation at every varint field" `Quick
            test_v3_truncated_fields;
          Alcotest.test_case "decode allocates the message only" `Quick
            test_v3_decode_allocation ] );
      ( "frame bounds",
        [ Alcotest.test_case "encoder rejects what the reader would" `Quick
            test_frame_boundary;
          Alcotest.test_case "limit-sized frame round-trips" `Quick
            test_frame_boundary_roundtrip ] );
      ( "stream",
        [ Alcotest.test_case "verdicts match check" `Quick test_stream_matches_check;
          Alcotest.test_case "verdicts match check (v3)" `Quick
            test_stream_matches_check_v3;
          Alcotest.test_case "over a FIFO" `Quick test_stream_over_fifo;
          Alcotest.test_case "allocation per message" `Quick test_stream_allocation;
          Alcotest.test_case "wide all-events trace is bounded" `Quick
            test_stream_wide_trace_bounded ] );
      ( "recovery",
        [ Alcotest.test_case "fail" `Quick test_recovery_fail;
          Alcotest.test_case "skip" `Quick test_recovery_skip;
          Alcotest.test_case "quarantine" `Quick test_recovery_quarantine;
          Alcotest.test_case "skip reports what noise lost" `Quick
            test_recovery_skip_noise ] );
      ( "backpressure",
        [ Alcotest.test_case "fails one message past the bound" `Quick
            test_backpressure_one_past_the_bound;
          Alcotest.test_case "stream enforces --max-buffered" `Quick
            test_stream_backpressure_enforced;
          Alcotest.test_case "gauge visible in metrics" `Quick
            test_stream_max_buffered_gauge ] );
      ( "gc",
        [ Alcotest.test_case "store collected once, fully" `Quick
            test_online_gc_collects_store ] ) ]
