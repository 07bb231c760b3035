(* Decoder fuzz smoke for CI: a seeded corpus of valid v3 and v1
   documents, each run through N random mutations, every result pushed
   through the strict decoders and the resynchronizing reader.  The
   contract under test: malformed input yields a typed [Wire.Error.t] or
   recovered [Skip] events — never an exception.

   Usage: fuzz_wire [--runs N] [--seed S]
   On a failure the seed and iteration are printed so the case replays. *)

module W = Jmpax.Wire

let msg tid var value clock =
  Trace.Message.make ~eid:0 ~tid ~var ~value ~mvc:(Vclock.of_list clock)

(* The benchmark's frame shape: a 64-thread all-events lock-counter run
   (four iterations a thread, 1,536 messages), reordered as a
   multi-channel transport delivers it.  Its delta frames carry about 12
   entries each, and a few hundred of its varints take two bytes
   (counter values from 64 on, variable ids from 128 on), so mutations
   land in frames that switch between the reader's one-byte fast path
   and its loop. *)
let lock_counter_doc =
  let threads = 64 in
  let program = Tml.Parser.parse_program (Lock_counter.source ~threads ~iters:4 ~nops:0) in
  let run = Tml.Vm.run_program ~sched:(Tml.Sched.random ~seed:1) program in
  let exec = Option.get run.Tml.Vm.exec in
  let messages =
    Observer.Channel.bounded_reorder ~seed:1 ~window:64 (Predict.Engine.messages_of_exec exec)
  in
  W.Framed3.encode { W.nthreads = threads; init = Trace.Exec.init exec } messages

(* The corpus: structurally diverse valid documents, each with the
   engines the stream attempt runs.  The lock-counter document's 64
   concurrent threads would make the lattice frontier combinatorial, so
   it goes through the linear-time engines. *)
let corpus =
  let h1 = { W.nthreads = 1; init = [ ("x", 0) ] } in
  let h2 = { W.nthreads = 2; init = [ ("a b", 1); ("p%q", -3) ] } in
  let h3 = { W.nthreads = 3; init = [] } in
  let t1 = (h1, [ msg 0 "x" 1 [ 1 ]; msg 0 "x" 2 [ 2 ] ]) in
  let t2 =
    ( h2,
      [ msg 0 "a b" 1 [ 1; 0 ];
        msg 1 "p%q" 2 [ 0; 1 ];
        msg 0 "a b" 3 [ 2; 1 ];
        msg 1 "p%q" 4 [ 2; 2 ] ] )
  in
  let t3 = (h3, [ msg 2 "v" 9 [ 0; 0; 1 ] ]) in
  let docs (h, ms) = [ W.encode h ms; W.Framed3.encode h ms ] in
  (* A wide sparse-clock v3 document: long index gaps and multi-byte
     varints.  Clocks are chained (each message joins its predecessor)
     so the events are totally ordered: a fully concurrent 32-thread
     trace would make the downstream lattice frontier combinatorial,
     which is the analysis's documented worst case, not a decoder
     property worth fuzzing. *)
  let wide =
    let nthreads = 32 in
    let active = [| 0; 13; 27 |] in
    let h = { W.nthreads; init = [ ("x", 0) ] } in
    let last = Array.make nthreads 0 in
    let ms =
      List.init 48 (fun i ->
          let tid = active.(i mod Array.length active) in
          last.(tid) <- last.(tid) + 1;
          Trace.Message.make ~eid:i ~tid ~var:"x" ~value:(i * 7919)
            ~mvc:(Vclock.of_array (Array.copy last)))
    in
    W.Framed3.encode h ms
  in
  List.map
    (fun doc -> (doc, [ Predict.Engine.Lattice ]))
    (List.concat_map docs [ t1; t2; t3 ]
    @ [ wide;
        (* degenerate but valid-prefix shapes *)
        W.Framed3.preamble;
        W.Framed3.preamble ^ W.Framed3.encode_header { W.nthreads = 2; init = [] };
        "jmpax-trace 1\nthreads 1\n" ])
  @ [ (lock_counter_doc, [ Predict.Engine.Race; Predict.Engine.Atomicity ]) ]

let mutate rng doc =
  let pick n = Random.State.int rng n in
  let n = String.length doc in
  match pick 8 with
  | 0 when n > 0 ->
      let b = Bytes.of_string doc in
      let i = pick n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + pick 255)));
      Bytes.to_string b
  | 1 when n > 0 -> String.sub doc 0 (pick n)
  | 2 ->
      let i = pick (n + 1) in
      let junk = String.init (1 + pick 12) (fun _ -> Char.chr (pick 256)) in
      String.sub doc 0 i ^ junk ^ String.sub doc i (n - i)
  | 3 when n > 1 ->
      let i = pick (n - 1) in
      let len = 1 + pick (min 24 (n - i - 1)) in
      String.sub doc 0 i ^ String.sub doc (i + len) (n - i - len)
  | 4 when n > 0 ->
      let i = pick n in
      let len = 1 + pick (min 48 (n - i)) in
      String.sub doc 0 (i + len) ^ String.sub doc i (n - i)
  | 5 ->
      (* forge a frame with a random kind and payload: random kinds and
         the retired wire-v2 kinds 'H'/'M'/'E' hit the unknown-kind
         path *)
      let kind =
        match pick 4 with
        | 0 -> "HME".[pick 3]
        | 1 -> W.Framed3.kind_message
        | 2 -> W.Framed3.kind_vardef
        | _ -> Char.chr (pick 256)
      in
      doc ^ W.Framed3.frame kind (String.init (pick 32) (fun _ -> Char.chr (pick 256)))
  | 6 ->
      (* forge a v3 message frame with adversarial varint bytes:
         truncated runs (0x80+ continuation with no terminator),
         overflowing shifts and corrupt delta lists *)
      let payload =
        String.init (pick 24) (fun _ ->
            if pick 2 = 0 then Char.chr (0x80 lor pick 128) else Char.chr (pick 256))
      in
      doc ^ W.Framed3.frame W.Framed3.kind_message payload
  | _ -> String.init (1 + pick 128) (fun _ -> Char.chr (pick 256))

let drain_reader rng doc =
  let r = W.Reader.create () in
  let pos = ref 0 in
  let n = String.length doc in
  let budget = ref (1000 + (4 * n)) in
  let rec go () =
    decr budget;
    if !budget <= 0 then failwith "reader did not terminate";
    match W.Reader.next r with
    | W.Reader.Item _ | W.Reader.Skip _ -> go ()
    | W.Reader.Eof -> ()
    | W.Reader.Await ->
        if !pos >= n then W.Reader.close r
        else begin
          let k = min (1 + Random.State.int rng 16) (n - !pos) in
          W.Reader.feed r (String.sub doc !pos k);
          pos := !pos + k
        end;
        go ()
  in
  go ()

let () =
  let runs = ref 200 and seed = ref 0x5EED in
  let rec parse = function
    | [] -> ()
    | "--runs" :: v :: rest ->
        runs := int_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | arg :: _ ->
        prerr_endline ("fuzz_wire: unknown argument " ^ arg);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let rng = Random.State.make [| !seed |] in
  let failures = ref 0 in
  for run = 1 to !runs do
    List.iteri
      (fun ci (base, engines) ->
        (* Stack 1-3 mutations so corruption compounds. *)
        let doc = ref base in
        for _ = 0 to Random.State.int rng 3 do
          doc := mutate rng !doc
        done;
        let doc = !doc in
        let attempt what f =
          match f () with
          | _ -> ()
          | exception e ->
              incr failures;
              Printf.eprintf
                "fuzz_wire: %s raised %s\n  repro: --seed %d (run %d, corpus %d)\n  input: %S\n"
                what (Printexc.to_string e) !seed run ci doc
        in
        attempt "decode_framed" (fun () -> W.decode_framed doc);
        attempt "decode_any" (fun () -> W.decode_any doc);
        attempt "Reader" (fun () -> drain_reader rng doc);
        attempt "Stream.run_string(skip)" (fun () ->
            Jmpax.Stream.run_string ~recovery:Jmpax.Config.Skip ~engines
              ~spec:Pastltl.Formula.True doc))
      corpus
  done;
  if !failures > 0 then begin
    Printf.eprintf "fuzz_wire: %d failure(s) over %d runs\n" !failures !runs;
    exit 1
  end;
  Printf.printf "fuzz_wire: %d runs x %d corpus entries, no exceptions escaped\n"
    !runs (List.length corpus)
