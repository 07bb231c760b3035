(* Crash safety: the checkpoint codec, the supervised transports and the
   kill/resume differential property — a run interrupted at an arbitrary
   point and resumed from its last checkpoint reports verdicts,
   violations and gc statistics identical to never having stopped. *)

module W = Jmpax.Wire
module E = Jmpax.Wire.Error
module C = Jmpax.Checkpoint
module T = Jmpax.Transport

(* {1 Shared fixtures (as in test_wire)} *)

let paper_examples =
  [ ("landing (Fig. 1/5)", Tml.Programs.landing_bounded,
     Tml.Programs.landing_observed, Pastltl.Formula.landing_spec);
    ("xyz (Fig. 6)", Tml.Programs.xyz, Tml.Programs.xyz_observed,
     Pastltl.Formula.xyz_spec) ]

let recorded_trace program script spec =
  let config =
    Jmpax.Config.default ()
    |> Jmpax.Config.with_sched (Tml.Sched.of_script script)
  in
  let out = Jmpax.Pipeline.check ~config ~spec program in
  let relevant = out.Jmpax.Pipeline.relevant_vars in
  let header =
    { W.nthreads = List.length program.Tml.Ast.threads;
      init =
        List.filter (fun (x, _) -> List.mem x relevant) program.Tml.Ast.shared }
  in
  (out, header, out.Jmpax.Pipeline.run.Tml.Vm.messages)

let framed_doc program script spec =
  let _, header, messages = recorded_trace program script spec in
  W.Framed3.encode header messages

let in_temp_file f =
  let path = Filename.temp_file "jmpax" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () -> f path)

let race_atomicity = [ Predict.Engine.Race; Predict.Engine.Atomicity ]

let engine_doc ~sched program reorder =
  let exec = Option.get (Tml.Vm.run_program ~sched program).Tml.Vm.exec in
  W.Framed3.encode
    { W.nthreads = Trace.Exec.nthreads exec; init = Trace.Exec.init exec }
    (reorder (Predict.Engine.messages_of_exec exec))

let final_checkpoint ~engines doc =
  in_temp_file (fun path ->
      ignore
        (Jmpax.Stream.run_string ~checkpoint:(path, 1) ~engines ~spec:Pastltl.Formula.True
           doc);
      match C.read path with Ok ck -> ck | Error e -> failwith (C.error_to_string e))

(* A race+atomicity checkpoint taken mid-stream: a three-thread
   lock-counter run reordered in transit, its stream cut half way. *)
let engine_checkpoint =
  lazy
    (let doc =
       engine_doc ~sched:(Tml.Sched.random ~seed:3)
         (Tml.Parser.parse_program (Lock_counter.source ~threads:3 ~iters:4 ~nops:0))
         (Observer.Channel.bounded_reorder ~seed:7 ~window:16)
     in
     final_checkpoint ~engines:race_atomicity (String.sub doc 0 (String.length doc / 2)))

(* {1 Codec round-trip laws} *)

(* Structurally valid checkpoints: consistent widths, nonempty frontier,
   naturals where the format demands them.  Monitor-state widths are
   arbitrary — the codec is spec-independent; only [restore] cares. *)
let gen_checkpoint =
  QCheck.Gen.(
    let var =
      let weird = [ "x"; "a b"; "p%q"; "n\nl"; "%"; "caf\xc3\xa9" ] in
      oneof [ oneofl weird; string_size ~gen:char (int_range 1 5) ]
    in
    let bindings = list_size (int_range 0 3) (pair var (int_range (-9) 9)) in
    int_range 1 4 >>= fun nthreads ->
    int_range 1 6 >>= fun mwidth ->
    let bits =
      string_size
        ~gen:(map (fun b -> if b then '1' else '0') bool)
        (return mwidth)
    in
    let nat_array = array_size (return nthreads) (int_range 0 50) in
    let bool_array = array_size (return nthreads) bool in
    let message =
      int_range 0 (nthreads - 1) >>= fun tid ->
      var >>= fun v ->
      int_range (-99) 99 >>= fun value ->
      array_size (return nthreads) (int_range 0 9) >>= fun clock ->
      int_range 0 999 >>= fun eid ->
      clock.(tid) <- max 1 clock.(tid);
      return
        (Trace.Message.make ~eid ~tid ~var:v ~value
           ~mvc:(Vclock.of_list (Array.to_list clock)))
    in
    let frontier_entry =
      triple nat_array bindings (list_size (int_range 1 3) bits)
    in
    let violation =
      nat_array >>= fun cut ->
      int_range 0 40 >>= fun level ->
      bindings >>= fun bs ->
      bits >>= fun b -> return (cut, level, bs, b)
    in
    bindings >>= fun init ->
    list_size (int_range 0 6) message >>= fun store ->
    list_size (int_range 1 5) frontier_entry >>= fun frontier ->
    list_size (int_range 0 3) violation >>= fun violations ->
    nat_array >>= fun prefix ->
    nat_array >>= fun beyond ->
    nat_array >>= fun gc_floor ->
    bool_array >>= fun ended ->
    bool_array >>= fun reader_ended ->
    (* Every checkpoint carries wire-v3 delta-decode state: decode
       refuses a body without it. *)
    list_size (int_range 0 4) var >>= fun vars ->
    array_size (return nthreads) nat_array >>= fun baselines ->
    bool_array >>= fun valid ->
    let v3 =
      Some
        { W.Reader.v3_vars = Array.of_list vars;
          v3_baselines = baselines;
          v3_valid = valid }
    in
    int_range 0 100_000 >>= fun position ->
    int_range 0 999 >>= fun next_eid ->
    int_range 0 40 >>= fun level ->
    bool >>= fun done_ ->
    int_range 0 500 >>= fun frames ->
    int_range 0 500 >>= fun messages ->
    int_range 0 9 >>= fun skipped_frames ->
    int_range 0 9 >>= fun resyncs ->
    int_range 0 99 >>= fun skipped_bytes ->
    int_range 0 9 >>= fun ends ->
    int_range 0 99 >>= fun quarantined ->
    int_range 0 9 >>= fun peak_buffered ->
    (* Engine blocks are opaque counted lines to the codec; exercise
       none and a real [linear 2] block, and (with the block) the
       lattice-less variant of the format. *)
    oneofl [ []; (Lazy.force engine_checkpoint).C.ck_engines ] >>= fun engines ->
    bool >>= fun drop_online ->
    let with_online = engines = [] || not drop_online in
    bool >>= fun degraded_flag ->
    bool >>= fun degraded_violated ->
    oneofl [ "frontier_budget"; "causal_budget"; "memory_budget" ]
    >>= fun degraded_reason ->
    (* A degraded checkpoint never carries lattice state (decode rejects
       the combination), so the marker only appears on online-free
       values. *)
    let degraded =
      if with_online || not degraded_flag then None
      else
        Some
          { Predict.Engines.d_from = "lattice";
            d_reason = degraded_reason;
            d_at_event = position;
            d_violated = degraded_violated }
    in
    return
      { C.ck_header = { W.nthreads; init };
        ck_spec_fp = Printf.sprintf "%08x" (position * 2654435761);
        ck_position = position;
        ck_next_eid = next_eid;
        ck_reader_stats =
          { W.Reader.frames; messages; skipped_frames; resyncs; skipped_bytes };
        ck_reader_ended = reader_ended;
        ck_v3 = v3;
        ck_ends = ends;
        ck_quarantined = quarantined;
        ck_peak_buffered = peak_buffered;
        ck_engines = engines;
        ck_degraded = degraded;
        ck_online =
          (if not with_online then None
           else
             Some
               { Predict.Online.snap_nthreads = nthreads;
                 snap_level = level;
                 snap_done = done_;
                 snap_prefix = prefix;
                 snap_beyond = beyond;
                 snap_gc_floor = gc_floor;
                 snap_ended = ended;
                 snap_store = store;
                 snap_frontier = frontier;
                 snap_violations = violations;
                 snap_retired_cuts = level * 2;
                 snap_peak_frontier_cuts = level + 1;
                 snap_peak_frontier_entries = level + 2;
                 snap_monitor_steps = level * 3 }) })

(* [encode] is injective on the value domain, so decode-then-re-encode
   matching the original encoding is a faithful round-trip law without
   relying on polymorphic equality over abstract clock values. *)
let test_roundtrip =
  QCheck.Test.make ~name:"checkpoint encode/decode round-trip" ~count:300
    (QCheck.make gen_checkpoint) (fun ck ->
      let enc = C.encode ck in
      match C.decode enc with
      | Error e ->
          QCheck.Test.fail_reportf "rejected own encoding: %s"
            (C.error_to_string e)
      | Ok ck' ->
          let enc' = C.encode ck' in
          if enc' <> enc then
            QCheck.Test.fail_reportf "re-encoding differs:\n%s\nvs\n%s" enc enc'
          else true)

let test_truncation_rejected =
  QCheck.Test.make ~name:"every proper prefix is rejected" ~count:60
    (QCheck.make gen_checkpoint) (fun ck ->
      let enc = C.encode ck in
      (* Sampling every 7th prefix keeps the law cheap but still covers
         cuts inside the magic, the envelope and the body. *)
      let rec go k =
        if k >= String.length enc then true
        else
          match C.decode (String.sub enc 0 k) with
          | Error _ -> go (k + 7)
          | Ok _ -> QCheck.Test.fail_reportf "accepted %d-byte prefix" k
      in
      go 0)

(* {1 Corruption rejection: flip any byte, get a clean refusal} *)

let test_flip_any_byte () =
  let _, program, script, spec = List.hd paper_examples in
  let doc = framed_doc program script spec in
  in_temp_file (fun path ->
      (match Jmpax.Stream.run_string ~checkpoint:(path, 1) ~spec doc with
      | Ok o ->
          Alcotest.(check bool) "checkpoints were written" true
            (o.Jmpax.Stream.s_stats.Jmpax.Stream.checkpoints > 0)
      | Error e -> Alcotest.failf "stream: %s" (E.to_string e));
      let ic = open_in_bin path in
      let enc =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (match C.decode enc with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "pristine file rejected: %s" (C.error_to_string e));
      let b = Bytes.of_string enc in
      for i = 0 to Bytes.length b - 1 do
        let orig = Bytes.get b i in
        Bytes.set b i (Char.chr (Char.code orig lxor 1));
        (match C.decode (Bytes.to_string b) with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "flip of byte %d went undetected" i
        | exception e ->
            Alcotest.failf "flip of byte %d raised %s" i (Printexc.to_string e));
        Bytes.set b i orig
      done)

(* {1 Spec binding} *)

let test_spec_mismatch () =
  let _, program, script, spec = List.hd paper_examples in
  let doc = framed_doc program script spec in
  in_temp_file (fun path ->
      (match Jmpax.Stream.run_string ~checkpoint:(path, 1) ~spec doc with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "stream: %s" (E.to_string e));
      let ck =
        match C.read path with
        | Ok ck -> ck
        | Error e -> Alcotest.failf "read: %s" (C.error_to_string e)
      in
      (match C.validate ~spec ck with
      | Ok () -> ()
      | Error e -> Alcotest.failf "same spec refused: %s" (C.error_to_string e));
      let other = Pastltl.Formula.xyz_spec in
      (match C.validate ~spec:other ck with
      | Error (C.Spec_mismatch _) -> ()
      | Error e ->
          Alcotest.failf "wrong error for spec mismatch: %s" (C.error_to_string e)
      | Ok () -> Alcotest.fail "mismatched spec accepted");
      (* Forcing a resume under the wrong spec (skipping [validate]) must
         still be refused — the monitor-state widths disagree — and never
         partially applied. *)
      match Jmpax.Stream.run_string ~resume:ck ~spec:other doc with
      | Error (E.Checkpoint _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
      | Ok _ -> Alcotest.fail "resume under the wrong spec succeeded")

let test_atomic_write () =
  let _, program, script, spec = List.hd paper_examples in
  let doc = framed_doc program script spec in
  in_temp_file (fun path ->
      (match Jmpax.Stream.run_string ~checkpoint:(path, 1) ~spec doc with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "stream: %s" (E.to_string e));
      Alcotest.(check bool) "no stale temp file" false
        (Sys.file_exists (path ^ ".tmp"));
      (* Overwriting an existing checkpoint goes through the same
         tmp+rename path. *)
      match C.read path with
      | Error e -> Alcotest.failf "read: %s" (C.error_to_string e)
      | Ok ck -> (
          match C.write path ck with
          | Error e -> Alcotest.failf "rewrite: %s" (C.error_to_string e)
          | Ok () ->
              Alcotest.(check bool) "still no temp file" false
                (Sys.file_exists (path ^ ".tmp"));
              (match C.read path with
              | Ok ck' ->
                  Alcotest.(check string) "rewrite round-trips" (C.encode ck)
                    (C.encode ck')
              | Error e -> Alcotest.failf "reread: %s" (C.error_to_string e))))

let test_read_missing () =
  match C.read "/nonexistent/jmpax.ckpt" with
  | Error (C.Io _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)
  | Ok _ -> Alcotest.fail "read of a missing file succeeded"

(* {1 Kill/resume differential} *)

let summary_of outcome = Jmpax.Report.stream_summary outcome

let gc_eq (a : Predict.Online.gc_stats) (b : Predict.Online.gc_stats) = a = b

let violation_keys (vs : Predict.Analyzer.violation list) =
  List.map
    (fun (v : Predict.Analyzer.violation) ->
      ( Array.to_list v.Predict.Analyzer.cut,
        v.Predict.Analyzer.level,
        Pastltl.State.to_list v.Predict.Analyzer.state,
        Pastltl.Monitor.state_to_string v.Predict.Analyzer.monitor_state ))
    vs

(* A v3 resume must restore the delta-decode state ([ck_v3]) or every
   delta frame after the checkpoint would be rejected as stale. *)
let test_kill_resume_differential () =
  List.iter
    (fun (name, program, script, spec) ->
      let doc = framed_doc program script spec in
      let expected =
        match Jmpax.Stream.run_string ~chunk_size:13 ~spec doc with
        | Ok o -> o
        | Error e -> Alcotest.failf "%s: uninterrupted: %s" name (E.to_string e)
      in
      let rng = Random.State.make [| 0x5eed; String.length doc |] in
      let kill_points =
        List.init 28 (fun _ -> Random.State.int rng (String.length doc + 1))
      in
      List.iter
        (fun kill ->
          in_temp_file (fun path ->
              (* The "killed" run: the transport dies after [kill] bytes;
                 whatever the driver made of the cut-off stream is
                 irrelevant — only the surviving checkpoint file counts. *)
              let prefix = String.sub doc 0 kill in
              ignore
                (Jmpax.Stream.run_string ~chunk_size:7 ~checkpoint:(path, 1)
                   ~spec prefix);
              let resumed =
                if Sys.file_exists path then begin
                  let ck =
                    match C.read path with
                    | Ok ck -> ck
                    | Error e ->
                        Alcotest.failf "%s kill=%d: read: %s" name kill
                          (C.error_to_string e)
                  in
                  (match C.validate ~spec ck with
                  | Ok () -> ()
                  | Error e ->
                      Alcotest.failf "%s kill=%d: validate: %s" name kill
                        (C.error_to_string e));
                  Jmpax.Stream.run_string ~chunk_size:13 ~resume:ck ~spec doc
                end
                else
                  (* Killed before the first checkpoint: start over. *)
                  Jmpax.Stream.run_string ~chunk_size:13 ~spec doc
              in
              match resumed with
              | Error e ->
                  Alcotest.failf "%s kill=%d: resume: %s" name kill
                    (E.to_string e)
              | Ok o ->
                  (* The acceptance bar: the whole summary — verdict,
                     counters, statistics — is byte-identical to the
                     uninterrupted run. *)
                  Alcotest.(check string)
                    (Printf.sprintf "%s kill=%d: summary" name kill)
                    (summary_of expected) (summary_of o);
                  Alcotest.(check bool)
                    (Printf.sprintf "%s kill=%d: gc stats" name kill)
                    true
                    (gc_eq expected.Jmpax.Stream.s_gc o.Jmpax.Stream.s_gc);
                  if
                    violation_keys expected.Jmpax.Stream.s_violations
                    <> violation_keys o.Jmpax.Stream.s_violations
                  then
                    Alcotest.failf "%s kill=%d: violations differ" name kill))
        kill_points)
    paper_examples

(* {1 Golden lattice checkpoints}

   A 4-thread lock-counter run (100 iterations, schedule seed 3) under a
   spec that some consistent cuts falsify, reordered in transit (window
   24, seed 5), written as wire v3 and cut after 3/5 of its bytes.  The
   last checkpoint the cut-off run wrote was computed by an earlier
   build and committed as [data/lattice_4t_mid.ckpt]: its [bmsg],
   [front] and [viol] lines pin the [jmpax-ckpt 1] encoding of the
   lattice's message store, global states and monitor states. *)

let golden_lattice_spec = Pastltl.Fparser.parse "c <= x0 + x1 + x2 + x3 + 1"

let golden_lattice_doc =
  lazy
    (let program =
       Tml.Parser.parse_program (Lock_counter.source ~threads:4 ~iters:100 ~nops:0)
     in
     let config =
       Jmpax.Config.default () |> Jmpax.Config.with_sched (Tml.Sched.random ~seed:3)
     in
     let out = Jmpax.Pipeline.check ~config ~spec:golden_lattice_spec program in
     let relevant = out.Jmpax.Pipeline.relevant_vars in
     let header =
       { W.nthreads = 4;
         init =
           List.filter (fun (x, _) -> List.mem x relevant) program.Tml.Ast.shared }
     in
     let messages =
       Observer.Channel.bounded_reorder ~seed:5 ~window:24
         out.Jmpax.Pipeline.run.Tml.Vm.messages
     in
     (W.Framed3.encode header messages, Jmpax.Pipeline.predicted_violation out))

let golden_lattice_md5 = "429712a4982d6dc97a03471e0278710c"

let data_file name =
  (* Beside the executable under [dune runtest], under [test/] from the
     repository root under [dune exec]. *)
  List.map
    (fun dir -> Filename.concat dir (Filename.concat "data" name))
    [ Filename.dirname Sys.executable_name; "test" ]
  |> List.find Sys.file_exists

let read_file path = In_channel.with_open_bin path In_channel.input_all

let count_prefixed prefix text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.starts_with ~prefix l)
  |> List.length

let test_golden_lattice_checkpoint () =
  let doc, violated = Lazy.force golden_lattice_doc in
  let cut = 3 * String.length doc / 5 in
  in_temp_file (fun path ->
      ignore
        (Jmpax.Stream.run_string ~chunk_size:4096 ~checkpoint:(path, 1)
           ~spec:golden_lattice_spec (String.sub doc 0 cut));
      let ours = read_file path in
      let committed = read_file (data_file "lattice_4t_mid.ckpt") in
      Alcotest.(check string) "committed file digest" golden_lattice_md5
        (Digest.to_hex (Digest.string committed));
      Alcotest.(check bool) "hundreds of stored messages" true
        (count_prefixed "bmsg " committed >= 200);
      Alcotest.(check bool) "violations recorded" true
        (count_prefixed "viol " committed > 0);
      Alcotest.(check string) "byte-identical to the committed checkpoint"
        committed ours;
      let ck =
        match C.read path with
        | Ok ck -> ck
        | Error e -> Alcotest.failf "read: %s" (C.error_to_string e)
      in
      Alcotest.(check string) "decode/encode round trip" committed (C.encode ck);
      let expected =
        match Jmpax.Stream.run_string ~chunk_size:4096 ~spec:golden_lattice_spec doc with
        | Ok o -> o
        | Error e -> Alcotest.failf "uninterrupted: %s" (E.to_string e)
      in
      Alcotest.(check bool) "stream verdict = check verdict" violated
        expected.Jmpax.Stream.s_violated;
      match
        Jmpax.Stream.run_string ~chunk_size:4096 ~resume:ck
          ~spec:golden_lattice_spec doc
      with
      | Error e -> Alcotest.failf "resume: %s" (E.to_string e)
      | Ok o ->
          Alcotest.(check string) "resumed summary = uninterrupted"
            (summary_of expected) (summary_of o);
          if
            violation_keys expected.Jmpax.Stream.s_violations
            <> violation_keys o.Jmpax.Stream.s_violations
          then Alcotest.fail "resumed violations differ")

(* A daemon drain checkpoint an earlier build wrote mid-way through a
   wire-v2 stream ([data/serve_3t_mid.ckpt]): its body has no v3 group,
   and decode refuses it with a typed error that names the retired
   format, so [stream --resume] exits 6 and [serve] starts the session
   fresh (test_serve checks the daemon side). *)
let v2_checkpoint_md5 = "deb6f70a5583680656306d31218b78a7"

let test_v2_checkpoint_refused () =
  let path = data_file "serve_3t_mid.ckpt" in
  let text = read_file path in
  Alcotest.(check string) "committed file digest" v2_checkpoint_md5
    (Digest.to_hex (Digest.string text));
  Alcotest.(check int) "no v3 group" 0 (count_prefixed "v3-vars " text);
  match C.read path with
  | Error (C.Malformed m as e) ->
      let has needle =
        let n = String.length needle in
        let rec at i = i + n <= String.length m && (String.sub m i n = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) (C.error_to_string e) true (has "wire v2")
  | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)
  | Ok _ -> Alcotest.fail "a wire-v2 checkpoint decoded"

(* {1 Body checks}

   The envelope pins a body's length and CRC, so flipped bytes never
   reach the field checks.  Here each body is mutated one line at a
   time and then wrapped in a correct envelope: [decode] must answer
   [Ok] or [Malformed], never raise, and whatever it accepts must
   encode to bytes it reads back to the same bytes. *)

let body_of text =
  let i = String.index text '\n' in
  let j = String.index_from text (i + 1) '\n' in
  String.sub text (j + 1) (String.length text - j - 1)

let wrap body =
  Printf.sprintf "jmpax-ckpt 1\nlen %d crc %08x\n%s" (String.length body) (C.crc32 body)
    body

let positions p s = List.filter (fun i -> p s.[i]) (List.init (String.length s) Fun.id)

let is_digit = function '0' .. '9' -> true | _ -> false

(* One mutation of one line: drop, duplicate or swap it, double a space,
   turn a digit into a letter, cut it short, or move a number in it off
   by one.  A mutation that does not apply to the line drops it. *)
let mutate rng body =
  let lines = String.split_on_char '\n' body in
  let n = List.length lines in
  let i = Random.State.int rng n in
  let line = List.nth lines i in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let edit f = List.mapi (fun k l -> if k = i then f l else l) lines in
  let drop () = List.filteri (fun k _ -> k <> i) lines in
  let lines =
    match Random.State.int rng 7 with
    | 0 -> drop ()
    | 1 -> List.concat (List.mapi (fun k l -> if k = i then [ l; l ] else [ l ]) lines)
    | 2 ->
        let j = Random.State.int rng n in
        let lj = List.nth lines j in
        List.mapi (fun k l -> if k = i then lj else if k = j then line else l) lines
    | 3 -> (
        match positions (( = ) ' ') line with
        | [] -> drop ()
        | ps ->
            let p = pick ps in
            edit (fun l -> String.sub l 0 p ^ " " ^ String.sub l p (String.length l - p)))
    | 4 -> (
        match positions is_digit line with
        | [] -> drop ()
        | ps ->
            let p = pick ps in
            let c = Char.chr (Char.code 'a' + Random.State.int rng 26) in
            edit (String.mapi (fun k ch -> if k = p then c else ch)))
    | 5 -> edit (fun l -> String.sub l 0 (Random.State.int rng (max 1 (String.length l))))
    | _ -> (
        (* The starts of the line's digit runs. *)
        let starts = List.filter (fun p -> p = 0 || not (is_digit line.[p - 1])) in
        match starts (positions is_digit line) with
        | [] -> drop ()
        | ps ->
            let p = pick ps in
            let e = ref p in
            while !e < String.length line && is_digit line.[!e] do incr e done;
            match int_of_string_opt (String.sub line p (!e - p)) with
            | None -> drop ()
            | Some v ->
                let v = if Random.State.bool rng then v + 1 else v - 1 in
                edit (fun l ->
                    String.sub l 0 p ^ string_of_int v ^ String.sub l !e (String.length l - !e)))
  in
  String.concat "\n" lines

let golden_bodies =
  lazy
    (List.map
       (fun name -> body_of (read_file (data_file name)))
       [ "lattice_4t_mid.ckpt"; "serve_3t_v3_mid.ckpt" ])

let test_mutated_bodies =
  let gen =
    QCheck.Gen.(
      pair
        (oneof
           [ map (fun ck -> body_of (C.encode ck)) gen_checkpoint;
             map (fun k -> List.nth (Lazy.force golden_bodies) k) (int_bound 1) ])
        (pair (int_range 1 3) int))
  in
  QCheck.Test.make ~name:"mutated bodies: Ok or Malformed, never raise" ~count:1500
    (QCheck.make gen) (fun (body, (k, seed)) ->
      let rng = Random.State.make [| seed |] in
      let body = ref body in
      for _ = 1 to k do body := mutate rng !body done;
      match C.decode (wrap !body) with
      | Error (C.Malformed _) -> true
      | Error e -> QCheck.Test.fail_reportf "not Malformed: %s" (C.error_to_string e)
      | Ok ck -> (
          let enc = C.encode ck in
          match C.decode enc with
          | Ok ck' when C.encode ck' = enc -> true
          | Ok _ -> QCheck.Test.fail_reportf "re-encoding differs"
          | Error e ->
              QCheck.Test.fail_reportf "refused its own re-encoding: %s" (C.error_to_string e))
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* {1 Engine blocks}

   The same mutations applied inside a real [linear 2] block: what
   [decode] accepts, [Engines.restore] must refuse with
   [Invalid_argument] or restore to a bundle that writes the block back
   unchanged. *)

let restore_engines ck =
  Predict.Engines.restore ~kinds:race_atomicity ~nthreads:ck.C.ck_header.W.nthreads
    ~spec:None ~online_snapshot:None ~blocks:ck.C.ck_engines ~events:0 ()

let test_mutated_engine_blocks =
  QCheck.Test.make ~name:"mutated engine blocks: refused or restored as written" ~count:1000
    (QCheck.make QCheck.Gen.(pair (int_range 1 3) int))
    (fun (k, seed) ->
      let ck = Lazy.force engine_checkpoint in
      let rng = Random.State.make [| seed |] in
      let block = ref (String.concat "\n" (List.assoc "linear" ck.C.ck_engines)) in
      for _ = 1 to k do block := mutate rng !block done;
      let ck = { ck with C.ck_engines = [ ("linear", String.split_on_char '\n' !block) ] } in
      match C.decode (C.encode ck) with
      | Error (C.Malformed _) -> true
      | Error e -> QCheck.Test.fail_reportf "not Malformed: %s" (C.error_to_string e)
      | Ok ck -> (
          match restore_engines ck with
          | b ->
              Predict.Engines.snapshots b = ck.C.ck_engines
              || QCheck.Test.fail_reportf "restored a block it writes differently:\n%s" !block
          | exception Invalid_argument _ -> true
          | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)))

(* The probe that found the loose engine readers: the [progress] line
   of a dekker-sketch race+atomicity checkpoint taken at the end of the
   stream, rewritten as [progress  +1 6] (a doubled space, a signed
   number and a field the layout does not have).  The loose readers
   took the same line in a [linear 1] block and resumed. *)
let test_loose_progress_refused () =
  let doc = engine_doc ~sched:(Tml.Sched.random ~seed:1) Tml.Programs.dekker_sketch Fun.id in
  let ck = final_checkpoint ~engines:race_atomicity doc in
  let lines = List.assoc "linear" ck.C.ck_engines in
  let progress = String.starts_with ~prefix:"progress " in
  Alcotest.(check (list string)) "progress line" [ "progress 1" ] (List.filter progress lines);
  ignore (restore_engines ck);
  let loose = List.map (fun l -> if progress l then "progress  +1 6" else l) lines in
  let ck =
    match C.decode (C.encode { ck with C.ck_engines = [ ("linear", loose) ] }) with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "decode: %s" (C.error_to_string e)
  in
  Alcotest.check_raises "restore"
    (Invalid_argument "linear engine: empty field in \"progress  +1 6\"")
    (fun () -> ignore (restore_engines ck));
  match
    Jmpax.Stream.run_string ~resume:ck ~engines:race_atomicity ~spec:Pastltl.Formula.True doc
  with
  | Error (E.Checkpoint _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "resumed from a loose progress line"

(* {1 Transports} *)

let string_raw doc =
  let pos = ref 0 in
  fun buf off len ->
    let n = min len (String.length doc - !pos) in
    Bytes.blit_string doc !pos buf off n;
    pos := !pos + n;
    n

let drain t =
  let buf = Bytes.create 97 in
  let out = Buffer.create 256 in
  let rec go () =
    match T.read t buf 0 (Bytes.length buf) with
    | 0 -> Buffer.contents out
    | n ->
        Buffer.add_subbytes out buf 0 n;
        go ()
  in
  go ()

let test_transport_eintr () =
  let doc = String.init 997 (fun i -> Char.chr (i mod 251)) in
  let raw = string_raw doc in
  let calls = ref 0 in
  let flaky buf off len =
    incr calls;
    if !calls mod 2 = 1 then raise (Unix.Unix_error (Unix.EINTR, "read", ""));
    raw buf off (min len 13)
  in
  let t = T.of_read flaky in
  Alcotest.(check string) "all bytes delivered" doc (drain t);
  Alcotest.(check int) "offset tracks delivery" (String.length doc) (T.offset t);
  Alcotest.(check bool) "not lost" true (T.lost t = None)

let test_faulty_stream_smoke () =
  let _, program, script, spec = List.hd paper_examples in
  let doc = framed_doc program script spec in
  let expected =
    match Jmpax.Stream.run_string ~spec doc with
    | Ok o -> o
    | Error e -> Alcotest.failf "clean run: %s" (E.to_string e)
  in
  List.iter
    (fun seed ->
      let plan =
        { T.Faulty.quiet with
          T.Faulty.seed;
          short_reads = true;
          eintr_every = 3;
          stall_every = 5 }
      in
      let t = T.of_read (T.Faulty.wrap plan (string_raw doc)) in
      match Jmpax.Stream.run ~spec ~read:(T.read t) () with
      | Error e -> Alcotest.failf "seed %d: %s" seed (E.to_string e)
      | Ok o ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d: summary unchanged" seed)
            (summary_of expected) (summary_of o))
    [ 1; 2; 3; 4; 5 ]

(* Each dial yields a connection that dies a little further into the
   stream; the reconnecting transport must splice them into one
   contiguous delivery and stop redialing at the logical end. *)
let test_reconnect_resumes_mid_stream () =
  let _, program, script, spec = List.hd paper_examples in
  let doc = framed_doc program script spec in
  let expected =
    match Jmpax.Stream.run_string ~spec doc with
    | Ok o -> o
    | Error e -> Alcotest.failf "clean run: %s" (E.to_string e)
  in
  let dials = ref 0 in
  let dial () =
    incr dials;
    let visible = min (String.length doc) (!dials * 53) in
    let raw = string_raw (String.sub doc 0 visible) in
    Ok (raw, fun () -> ())
  in
  let backoff =
    { T.bo_min = 0.01; bo_max = 0.05; bo_retries = 1000; bo_deadline = 0.0 }
  in
  let t = T.reconnecting ~backoff ~sleep:(fun _ -> ()) ~seed:7 ~dial () in
  (match Jmpax.Stream.run ~chunk_size:11 ~spec ~read:(T.read t) () with
  | Error e -> Alcotest.failf "reconnecting stream: %s" (E.to_string e)
  | Ok o ->
      Alcotest.(check string) "summary unchanged" (summary_of expected)
        (summary_of o));
  Alcotest.(check bool) "reconnected at least once" true (!dials > 1);
  Alcotest.(check bool) "not lost" true (T.lost t = None)

let test_reconnect_budget_exhaustion () =
  let slept = ref 0.0 in
  let backoff =
    { T.bo_min = 0.01; bo_max = 0.02; bo_retries = 3; bo_deadline = 0.0 }
  in
  let t =
    T.reconnecting ~backoff
      ~sleep:(fun d -> slept := !slept +. d)
      ~dial:(fun () -> Error "connection refused")
      ()
  in
  let buf = Bytes.create 16 in
  Alcotest.(check int) "read yields EOF" 0 (T.read t buf 0 16);
  (match T.lost t with
  | Some _ -> ()
  | None -> Alcotest.fail "budget exhaustion not reported");
  Alcotest.(check bool) "backed off between dials" true (!slept > 0.0);
  (* The whole pipeline maps this to a typed error, not a hang. *)
  match Jmpax.Stream.run ~spec:Pastltl.Formula.True ~read:(T.read t) () with
  | Error E.Missing_header_frame -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "stream succeeded on a dead transport"

let test_reconnect_deadline () =
  let backoff =
    { T.bo_min = 1.0; bo_max = 10.0; bo_retries = 1_000_000; bo_deadline = 2.5 }
  in
  let t =
    T.reconnecting ~backoff
      ~sleep:(fun _ -> ())
      ~seed:3
      ~dial:(fun () -> Error "connection refused")
      ()
  in
  let buf = Bytes.create 16 in
  Alcotest.(check int) "read yields EOF" 0 (T.read t buf 0 16);
  match T.lost t with
  | Some reason ->
      Alcotest.(check bool) "reason mentions the deadline" true
        (String.length reason > 0)
  | None -> Alcotest.fail "deadline exhaustion not reported"

(* The fault plan is seeded: the same plan over the same bytes yields
   the same delivery schedule — the property the differential suite
   leans on to replay a failure exactly. *)
let test_faulty_deterministic () =
  let doc = String.init 509 (fun i -> Char.chr ((i * 7) mod 256)) in
  let run () =
    let plan =
      { T.Faulty.quiet with T.Faulty.seed = 11; short_reads = true }
    in
    drain (T.of_read (T.Faulty.wrap plan (string_raw doc)))
  in
  Alcotest.(check string) "same bytes" (run ()) (run ());
  Alcotest.(check string) "and equal to the source" doc (run ())

(* {1 CRC32}

   The envelope's CRC against the bytewise table loop it replaced: the
   standard check value, every length around the eight-byte stride, and
   random strings.  (The golden checkpoints pin it end to end: their
   envelopes must still verify.) *)

let crc32_bytewise s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

let test_crc32_check_value () =
  Alcotest.(check int) "123456789" 0xcbf43926 (C.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (C.crc32 "");
  let s = String.init 40 (fun i -> Char.chr (((i * 37) + 11) land 0xff)) in
  for len = 0 to String.length s do
    let sub = String.sub s 0 len in
    Alcotest.(check int) (Printf.sprintf "length %d" len) (crc32_bytewise sub) (C.crc32 sub)
  done

let test_crc32_random =
  QCheck.Test.make ~name:"crc32 = bytewise reference" ~count:500
    QCheck.(string_gen_of_size Gen.(int_bound 300) Gen.char)
    (fun s -> C.crc32 s = crc32_bytewise s)

(* {1 Buffered messages}

   A checkpoint stores each message the lattice engine still holds as a
   [bmsg <eid>] line followed by its wire-v1 [msg] line, read back with
   the header's width in force: thread id in range, clock as wide as
   the header, own component at least 1.  One [bmsg] line of the
   committed 4-thread golden is replaced at a time, under a correct
   envelope. *)

let with_first_bmsg line =
  let body = body_of (read_file (data_file "lattice_4t_mid.ckpt")) in
  let replaced = ref false in
  String.split_on_char '\n' body
  |> List.map (fun l ->
         if (not !replaced) && String.starts_with ~prefix:"bmsg " l then begin
           replaced := true;
           line
         end
         else l)
  |> String.concat "\n" |> wrap

let expect_bmsg_refused line needle =
  match C.decode (with_first_bmsg line) with
  | Error (C.Malformed m) ->
      let n = String.length needle in
      let rec at i = i + n <= String.length m && (String.sub m i n = needle || at (i + 1)) in
      if not (at 0) then Alcotest.failf "%S: %S does not name %S" line m needle
  | Error e -> Alcotest.failf "%S: not Malformed: %s" line (C.error_to_string e)
  | Ok _ -> Alcotest.failf "%S accepted" line

let test_bmsg_tid_out_of_range () =
  (match C.decode (with_first_bmsg "bmsg 105 msg 0 c 33 (27,21,25,23)") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the golden's own line refused: %s" (C.error_to_string e));
  expect_bmsg_refused "bmsg 105 msg 4 c 33 (27,21,25,23)"
    "thread id 4 out of range (trace has 4 threads)";
  expect_bmsg_refused "bmsg 105 msg -1 c 33 (27,21,25,23)" "bmsg"

let test_bmsg_clock_width () =
  expect_bmsg_refused "bmsg 105 msg 0 c 33 (27,21,25,23,1)"
    "clock has 5 components where the header promises 4";
  expect_bmsg_refused "bmsg 105 msg 0 c 33 (27,21,25)"
    "clock has 3 components where the header promises 4"

let test_bmsg_own_component () =
  expect_bmsg_refused "bmsg 105 msg 0 c 33 (0,21,25,23)" "own clock component below 1"

let test_bmsg_malformed () =
  List.iter
    (fun line -> expect_bmsg_refused line "bmsg")
    [ "bmsg 105 msg zero c 33 (27,21,25,23)"; "bmsg 105 msg 0 c 33"; "bmsg 105";
      "bmsg 105 msh 0 c 33 (27,21,25,23)"; "bmsg 105 msg 0 c x (27,21,25,23)";
      "bmsg 105 msg 0 c%4_ 33 (27,21,25,23)"; "bmsg 105 msg 0 c 33 27,21,25,23" ]

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ test_roundtrip; test_truncation_rejected; test_crc32_random ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]))
      [ test_mutated_bodies; test_mutated_engine_blocks ]

let () =
  Alcotest.run "checkpoint"
    [ ("codec laws", qcheck_tests);
      ("crc32", [ Alcotest.test_case "check value and strides" `Quick test_crc32_check_value ]);
      ( "corruption",
        [ Alcotest.test_case "flip any byte" `Quick test_flip_any_byte;
          Alcotest.test_case "missing file" `Quick test_read_missing ] );
      ( "spec binding",
        [ Alcotest.test_case "fingerprint mismatch" `Quick test_spec_mismatch ] );
      ( "atomicity",
        [ Alcotest.test_case "tmp+rename" `Quick test_atomic_write ] );
      ( "differential",
        [ Alcotest.test_case "kill and resume" `Quick
            test_kill_resume_differential ] );
      ( "golden",
        [ Alcotest.test_case "mid-stream lattice checkpoint" `Quick
            test_golden_lattice_checkpoint;
          Alcotest.test_case "wire v2 checkpoint refused" `Quick
            test_v2_checkpoint_refused ] );
      ( "v1 hardening",
        [ Alcotest.test_case "tid out of range" `Quick test_bmsg_tid_out_of_range;
          Alcotest.test_case "clock width" `Quick test_bmsg_clock_width;
          Alcotest.test_case "own component" `Quick test_bmsg_own_component;
          Alcotest.test_case "malformed bmsg line" `Quick test_bmsg_malformed ] );
      ( "engine block",
        [ Alcotest.test_case "loose progress line refused" `Quick
            test_loose_progress_refused ] );
      ( "transport",
        [ Alcotest.test_case "EINTR retry" `Quick test_transport_eintr;
          Alcotest.test_case "fault-injection smoke" `Quick
            test_faulty_stream_smoke;
          Alcotest.test_case "reconnect mid-stream" `Quick
            test_reconnect_resumes_mid_stream;
          Alcotest.test_case "retry budget" `Quick
            test_reconnect_budget_exhaustion;
          Alcotest.test_case "deadline budget" `Quick test_reconnect_deadline;
          Alcotest.test_case "deterministic faults" `Quick
            test_faulty_deterministic ] ) ]
