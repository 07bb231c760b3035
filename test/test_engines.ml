(* The pluggable engine registry: streaming race/atomicity engines must
   agree byte-for-byte with the offline passes on any causal reordering
   of any execution, survive kill-and-resume at arbitrary points, and
   refuse to resume under a different engine set. *)

module W = Jmpax.Wire
module E = Jmpax.Wire.Error
module C = Jmpax.Checkpoint
module PE = Predict.Engine

let exec_of_program ~seed program =
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.random ~seed) program in
  Option.get r.Tml.Vm.exec

let offline_verdicts exec =
  ( Predict.Race.verdict_of_report (Predict.Race.detect exec),
    Predict.Atomicity.verdict_of_report (Predict.Atomicity.analyze exec) )

(* Feed the execution's messages, arbitrarily reordered, through the
   registry path: causal delivery must linearize them back into verdicts
   identical to the in-order offline scan. *)
let engine_verdicts ~reorder exec =
  let bundle =
    Predict.Engines.create ~kinds:[ PE.Race; PE.Atomicity ]
      ~nthreads:(Trace.Exec.nthreads exec) ~init:(Trace.Exec.init exec)
      ~spec:None ()
  in
  List.iter (Predict.Engines.feed bundle)
    (reorder (PE.messages_of_exec exec));
  Predict.Engines.finish bundle;
  let lines = Predict.Engines.verdict_lines bundle in
  (List.assoc "race" lines, List.assoc "atomicity" lines)

let reorderings =
  [ ("in-order", fun ms -> ms);
    ("reversed", List.rev);
    ("shuffled(7)", Observer.Channel.shuffle ~seed:7);
    ("shuffled(23)", Observer.Channel.shuffle ~seed:23) ]

let fixture_programs =
  [ ("racy counter", Tml.Programs.racy_counter ~increments:2);
    ("locked counter", Tml.Programs.locked_counter ~increments:2);
    ("dekker sketch", Tml.Programs.dekker_sketch);
    ( "unprotected remote write",
      Tml.Parser.parse_program
        {| shared counter = 0;
           thread a { sync (m) { counter = counter + 1; } }
           thread b { counter = 5; } |} ) ]

let test_engines_equal_offline_fixtures () =
  List.iter
    (fun (pname, program) ->
      List.iter
        (fun seed ->
          let exec = exec_of_program ~seed program in
          let race_off, atom_off = offline_verdicts exec in
          List.iter
            (fun (oname, reorder) ->
              let race_on, atom_on = engine_verdicts ~reorder exec in
              Alcotest.(check string)
                (Printf.sprintf "%s seed=%d %s: race" pname seed oname)
                race_off race_on;
              Alcotest.(check string)
                (Printf.sprintf "%s seed=%d %s: atomicity" pname seed oname)
                atom_off atom_on)
            reorderings)
        [ 0; 1; 2; 3; 4 ])
    fixture_programs

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_engine_verdict_contents () =
  let verdicts program =
    engine_verdicts ~reorder:(fun ms -> ms) (exec_of_program ~seed:0 program)
  in
  let race_racy, _ = verdicts (Tml.Programs.racy_counter ~increments:2) in
  Alcotest.(check bool) "racy counter races" true
    (contains race_racy "RACES PREDICTED");
  let race_ok, atom_ok = verdicts (Tml.Programs.locked_counter ~increments:2) in
  Alcotest.(check bool) "locked counter race-free" true
    (contains race_ok "no data races predicted");
  Alcotest.(check bool) "locked counter serializable" true
    (contains atom_ok "serializable");
  let _, atom_bad = verdicts (List.assoc "unprotected remote write" fixture_programs) in
  Alcotest.(check bool) "unprotected write violates atomicity" true
    (contains atom_bad "VIOLATIONS PREDICTED");
  (* The operational contract: every engine line is greppable under the
     one canonical prefix. *)
  List.iter
    (fun line ->
      Alcotest.(check bool) "canonical predict. prefix" true
        (String.length line > 8 && String.sub line 0 8 = "predict."))
    [ race_racy; race_ok; atom_ok; atom_bad ]

(* {1 Random programs (qcheck): offline == online under reordering} *)

(* Threads of plain assignments and sync blocks over a 3-variable pool
   and two locks; right-hand sides read a shared variable half the
   time, so the race and atomicity cores both get real work. *)
let gen_sync_program =
  QCheck.Gen.(
    let var = oneofl [ "a"; "b"; "c" ] in
    let expr =
      oneof
        [ map (fun n -> `Const n) (int_bound 3);
          map2 (fun v k -> `Read (v, k)) var (int_bound 2) ]
    in
    let assign = pair var expr in
    let item =
      oneof
        [ map (fun a -> `Plain a) assign;
          map2
            (fun l assigns -> `Sync (l, assigns))
            (oneofl [ "m"; "n" ])
            (list_size (int_range 1 2) assign) ]
    in
    let thread = list_size (int_range 1 4) item in
    triple
      (list_size (int_range 2 3) thread)
      (int_bound 1000) (int_bound 1000))

let render_expr = function
  | `Const n -> string_of_int n
  | `Read (v, k) -> Printf.sprintf "%s + %d" v k

let render_program threads =
  let stmt (x, e) = Printf.sprintf "%s = %s;" x (render_expr e) in
  let item = function
    | `Plain a -> stmt a
    | `Sync (l, assigns) ->
        Printf.sprintf "sync (%s) { %s }" l
          (String.concat " " (List.map stmt assigns))
  in
  Printf.sprintf "shared a = 0, b = 0, c = 0;\n%s"
    (String.concat "\n"
       (List.mapi
          (fun i items ->
            Printf.sprintf "thread t%d { %s }" i
              (String.concat " " (List.map item items)))
          threads))

let print_sync_program (threads, sched_seed, reorder_seed) =
  Printf.sprintf "sched=%d reorder=%d\n%s" sched_seed reorder_seed
    (render_program threads)

let arb_sync_program = QCheck.make ~print:print_sync_program gen_sync_program

let qcheck_engines_equal_offline =
  QCheck.Test.make
    ~name:"random sync programs: streaming engines == offline passes"
    ~count:80 arb_sync_program (fun (threads, sched_seed, reorder_seed) ->
      let program = Tml.Parser.parse_program (render_program threads) in
      let exec = exec_of_program ~seed:sched_seed program in
      let race_off, atom_off = offline_verdicts exec in
      let race_on, atom_on =
        engine_verdicts
          ~reorder:(Observer.Channel.shuffle ~seed:reorder_seed)
          exec
      in
      race_off = race_on && atom_off = atom_on)

(* {1 An independent race oracle}

   The offline passes and the streaming engines share one front end, so
   comparing them only checks delivery orders of one implementation.
   This oracle builds the sync-only happens-before straight from the
   execution — program order plus an edge between every two accesses of
   one sync variable, in observed order, at least one a write (lock
   acquire and release are writes) — and closes it transitively, with
   no clock code. *)

(* [before.(i).(j)]: event [j] happens before or is event [i]. *)
let sync_only_hb exec =
  let events = Trace.Exec.events exec in
  let n = Array.length events in
  let before = Array.make_matrix n n false in
  let sync_var (e : Trace.Event.t) =
    match Trace.Event.variable e with
    | Some x when Trace.Types.is_sync_var x -> Some x
    | _ -> None
  in
  Array.iteri
    (fun i (e : Trace.Event.t) ->
      before.(i).(i) <- true;
      for j = 0 to i - 1 do
        let f = events.(j) in
        let edge =
          f.Trace.Event.tid = e.Trace.Event.tid
          ||
          match (sync_var f, sync_var e) with
          | Some x, Some y -> x = y && (Trace.Event.is_write f || Trace.Event.is_write e)
          | _ -> false
        in
        if edge then
          for k = 0 to j do
            if before.(j).(k) then before.(i).(k) <- true
          done
      done)
    events;
  before

(* The sync-only clock of event [i]: per thread, how many of its
   accesses happen before or are [i]. *)
let oracle_clock exec before i =
  let c = Array.make (Trace.Exec.nthreads exec) 0 in
  Array.iteri
    (fun j (f : Trace.Event.t) ->
      if before.(i).(j) && (Trace.Event.is_read f || Trace.Event.is_write f) then
        c.(f.Trace.Event.tid) <- c.(f.Trace.Event.tid) + 1)
    (Trace.Exec.events exec);
  c

(* [Race.detect] by brute force: every conflicting pair of data accesses
   is checked for concurrency; a variable is racy when one is
   concurrent.  The summaries pair an access with the latest earlier
   conflicting access of each other thread and direction (a write
   before a read, threads ascending), so [pairs_found] and the kept
   pairs count those that are concurrent. *)
let brute_force_races exec =
  let events = Trace.Exec.events exec in
  let before = sync_only_hb exec in
  let data i =
    match Trace.Event.variable events.(i) with
    | Some x when Trace.Types.is_data_var x -> Some x
    | _ -> None
  in
  let concurrent i j = (not before.(i).(j)) && not before.(j).(i) in
  let pairs = ref [] and racy = ref [] and accesses = ref 0 in
  Array.iteri
    (fun i (e : Trace.Event.t) ->
      match data i with
      | None -> ()
      | Some x ->
          incr accesses;
          let conflicting = ref [] in
          for j = 0 to i - 1 do
            if data j = Some x && events.(j).Trace.Event.tid <> e.Trace.Event.tid
               && (Trace.Event.is_write e || Trace.Event.is_write events.(j))
            then begin
              conflicting := j :: !conflicting;
              if concurrent i j && not (List.mem x !racy) then racy := x :: !racy
            end
          done;
          let latest u is_write =
            List.find_opt
              (fun j ->
                events.(j).Trace.Event.tid = u && Trace.Event.is_write events.(j) = is_write)
              !conflicting
          in
          for u = 0 to Trace.Exec.nthreads exec - 1 do
            List.iter
              (fun is_write ->
                match latest u is_write with
                | Some j when concurrent i j ->
                    pairs := (events.(j).Trace.Event.eid, e.Trace.Event.eid) :: !pairs
                | Some _ | None -> ())
              [ true; false ]
          done)
    events;
  (List.rev !pairs, List.sort compare !racy, !accesses)

let program_of (threads, _, _) = Tml.Parser.parse_program (render_program threads)

let qcheck_race_oracle =
  QCheck.Test.make ~name:"random sync programs: Race.detect == brute-force sync-only HB"
    ~count:150 arb_sync_program (fun ((_, sched_seed, _) as p) ->
      let exec = exec_of_program ~seed:sched_seed (program_of p) in
      let pairs, racy, accesses = brute_force_races exec in
      let r = Predict.Race.detect exec in
      let got =
        List.map
          (fun { Predict.Race.first; second } -> (first.Predict.Race.eid, second.Predict.Race.eid))
          r.Predict.Race.races
      in
      (r.Predict.Race.pairs_found = List.length pairs
      || QCheck.Test.fail_reportf "pairs_found %d, oracle %d" r.Predict.Race.pairs_found
           (List.length pairs))
      && got = pairs
      && r.Predict.Race.racy_vars = racy
      && r.Predict.Race.accesses = accesses)

(* Every data access's epoch, offline ([Linear.replay]) and streaming
   ([Linear.feed] over a shuffled stream), against the oracle's clock. *)
let qcheck_epoch_oracle =
  QCheck.Test.make ~name:"random sync programs: Linear epochs == brute-force sync-only clocks"
    ~count:150 arb_sync_program (fun ((_, sched_seed, reorder_seed) as p) ->
      let exec = exec_of_program ~seed:sched_seed (program_of p) in
      let before = sync_only_hb exec in
      let nthreads = Trace.Exec.nthreads exec in
      let check origin tid eid e =
        let want = oracle_clock exec before eid in
        let got = Array.init nthreads (Predict.Syncclock.get e) in
        (got = want && Predict.Syncclock.to_vclock e = Vclock.of_array want)
        || QCheck.Test.fail_reportf "%s: e%d of T%d: clock %s, oracle %s" origin eid tid
             (Vclock.to_string (Vclock.of_array got))
             (Vclock.to_string (Vclock.of_array want))
      in
      let seen = ref 0 in
      let sink origin =
        { Predict.Linear.lock = (fun _ _ _ -> ());
          access =
            (fun tid _ ~is_write:_ ~eid e ->
              incr seen;
              ignore (check origin tid eid e)) }
      in
      Predict.Linear.replay exec (sink "replay");
      let front = Predict.Linear.create ~nthreads () in
      List.iter
        (Predict.Linear.feed front (sink "stream"))
        (Observer.Channel.shuffle ~seed:reorder_seed (PE.messages_of_exec exec));
      Predict.Linear.finish front;
      !seen = 2 * (Predict.Race.detect exec).Predict.Race.accesses)

(* The cores read an epoch's components in place: [base.(u)] for every
   [u] other than the epoch's thread, [own] for that thread.  That is
   [Syncclock.get] only while every epoch a sink receives is the
   accessing thread's, full width, and every restored log entry is its
   owner's. *)
let epoch_invariant ~nthreads origin tid (e : Predict.Syncclock.epoch) =
  let ok = ref (e.tid = tid && Array.length e.base = nthreads) in
  if !ok then begin
    for u = 0 to nthreads - 1 do
      if u <> e.tid && e.base.(u) <> Predict.Syncclock.get e u then ok := false
    done;
    if e.own <> Predict.Syncclock.get e e.tid then ok := false
  end;
  !ok
  || QCheck.Test.fail_reportf "%s: epoch of T%d (tid %d, own %d, base %s) breaks the invariant"
       origin tid e.tid e.own
       (String.concat "," (Array.to_list (Array.map string_of_int e.base)))

let qcheck_epoch_invariant =
  QCheck.Test.make ~name:"random sync programs: epochs and restored logs read in place"
    ~count:150 arb_sync_program (fun ((_, sched_seed, reorder_seed) as p) ->
      let exec = exec_of_program ~seed:sched_seed (program_of p) in
      let nthreads = Trace.Exec.nthreads exec in
      let checking origin =
        { Predict.Linear.lock = (fun _ _ _ -> ());
          access =
            (fun tid _ ~is_write:_ ~eid:_ e ->
              ignore (epoch_invariant ~nthreads origin tid e)) }
      in
      Predict.Linear.replay exec (checking "replay");
      let core = Predict.Atomicity.Core.create ~nthreads in
      let front = Predict.Linear.create ~nthreads () in
      let sink =
        Predict.Linear.fan_out [ checking "stream"; Predict.Atomicity.Core.sink core ]
      in
      let restored_logs_hold () =
        let lines = ref [] in
        Predict.Atomicity.Core.write lines core;
        let restored =
          Predict.Atomicity.Core.read ~what:"test" ~nthreads
            ~transactions:(Predict.Atomicity.Core.transactions core)
            (PE.Snapshot.reader (List.rev !lines))
        in
        List.iter
          (fun (owner, e) -> ignore (epoch_invariant ~nthreads "restored log" owner e))
          (Predict.Atomicity.Core.log_epochs restored)
      in
      let messages = Observer.Channel.shuffle ~seed:reorder_seed (PE.messages_of_exec exec) in
      let half = List.length messages / 2 in
      List.iteri
        (fun i m ->
          if i = half then restored_logs_hold ();
          Predict.Linear.feed front sink m)
        messages;
      Predict.Linear.finish front;
      restored_logs_hold ();
      List.iter
        (fun (owner, e) -> ignore (epoch_invariant ~nthreads "live log" owner e))
        (Predict.Atomicity.Core.log_epochs core);
      true)

(* {1 Kill/resume differential, per engine set} *)

let in_temp_file f =
  let path = Filename.temp_file "jmpax" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () -> f path)

(* A framed wire document carrying the all-events messages the engines
   consume (reads included), exactly what [jmpax run --engine race]
   records. *)
let engine_stream_doc ~sched_seed program =
  let exec = exec_of_program ~seed:sched_seed program in
  let header =
    { W.nthreads = Trace.Exec.nthreads exec; init = Trace.Exec.init exec }
  in
  W.Framed3.encode header (PE.messages_of_exec exec)

let engine_sets =
  [ ("race", [ PE.Race ]);
    ("atomicity", [ PE.Atomicity ]);
    ("race+atomicity", [ PE.Race; PE.Atomicity ]);
    ("lattice+race+atomicity", [ PE.Lattice; PE.Race; PE.Atomicity ]) ]

let test_kill_resume_per_engine () =
  let program = Tml.Programs.racy_counter ~increments:2 in
  let spec = Pastltl.Fparser.parse "always counter <= 1" in
  let doc = engine_stream_doc ~sched_seed:3 program in
  List.iter
    (fun (name, engines) ->
      let expected =
        match Jmpax.Stream.run_string ~chunk_size:13 ~engines ~spec doc with
        | Ok o -> o
        | Error e -> Alcotest.failf "%s: uninterrupted: %s" name (E.to_string e)
      in
      let rng = Random.State.make [| 0x9e7; String.length doc |] in
      let kill_points =
        List.init 8 (fun _ -> Random.State.int rng (String.length doc + 1))
      in
      List.iter
        (fun kill ->
          in_temp_file (fun path ->
              let prefix = String.sub doc 0 kill in
              ignore
                (Jmpax.Stream.run_string ~chunk_size:7 ~checkpoint:(path, 1)
                   ~engines ~spec prefix);
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
                  Jmpax.Stream.run_string ~chunk_size:13 ~resume:ck ~engines
                    ~spec doc
                end
                else Jmpax.Stream.run_string ~chunk_size:13 ~engines ~spec doc
              in
              match resumed with
              | Error e ->
                  Alcotest.failf "%s kill=%d: resume: %s" name kill
                    (E.to_string e)
              | Ok o ->
                  (* The whole summary — engine verdict lines included —
                     must be byte-identical to never having stopped. *)
                  Alcotest.(check string)
                    (Printf.sprintf "%s kill=%d: summary" name kill)
                    (Jmpax.Report.stream_summary expected)
                    (Jmpax.Report.stream_summary o);
                  Alcotest.(check bool)
                    (Printf.sprintf "%s kill=%d: verdict lines" name kill)
                    true
                    (expected.Jmpax.Stream.s_engines = o.Jmpax.Stream.s_engines)))
        kill_points)
    engine_sets

let test_resume_engine_set_mismatch () =
  let program = Tml.Programs.racy_counter ~increments:2 in
  let spec = Pastltl.Formula.True in
  let doc = engine_stream_doc ~sched_seed:1 program in
  in_temp_file (fun path ->
      (match
         Jmpax.Stream.run_string ~checkpoint:(path, 1) ~engines:[ PE.Race ]
           ~spec doc
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "race-only run: %s" (E.to_string e));
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path);
      let ck =
        match C.read path with
        | Ok ck -> ck
        | Error e -> Alcotest.failf "read: %s" (C.error_to_string e)
      in
      let expect_refused label engines =
        match Jmpax.Stream.run_string ~resume:ck ~engines ~spec doc with
        | Error (E.Checkpoint _) -> ()
        | Error e ->
            Alcotest.failf "%s: wrong error: %s" label (E.to_string e)
        | Ok _ -> Alcotest.failf "%s: resume under wrong engine set" label
      in
      expect_refused "lattice" [ PE.Lattice ];
      expect_refused "race+atomicity" [ PE.Race; PE.Atomicity ];
      (* The matching set still resumes. *)
      match Jmpax.Stream.run_string ~resume:ck ~engines:[ PE.Race ] ~spec doc with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "matching set: %s" (E.to_string e))

(* {1 Snapshot identity on a reordered wide trace}

   The engines' snapshots are rendered from their live indexes (the
   causal delivery index, the per-variable atomicity rows).  Restoring
   a snapshot and taking it again must give the same lines, and a
   resumed bundle must end exactly where an uninterrupted one does. *)

(* The ledger's program shape: each thread increments [c] under one of
   four locks, writes its own cell and reads its neighbour's. *)
let lock_counter_source ~threads ~iters =
  let cells = List.init threads (Printf.sprintf "x%d = 0") in
  Printf.sprintf "shared c = 0, %s;\n%s" (String.concat ", " cells)
    (String.concat "\n"
       (List.init threads (fun t ->
            Printf.sprintf
              "thread t%d { local i = 0; local r = 0; while (i < %d) { sync (m%d) { c = c \
               + 1; } x%d = i + 1; r = x%d; i = i + 1; } }"
              t iters (t mod 4) t ((t + 1) mod threads))))

let test_snapshot_identity () =
  let exec =
    exec_of_program ~seed:5
      (Tml.Parser.parse_program (lock_counter_source ~threads:16 ~iters:6))
  in
  let nthreads = Trace.Exec.nthreads exec and init = Trace.Exec.init exec in
  let messages =
    Observer.Channel.bounded_reorder ~seed:11 ~window:64 (PE.messages_of_exec exec)
  in
  let n = List.length messages in
  List.iter
    (fun (name, kinds) ->
      let create () = Predict.Engines.create ~kinds ~nthreads ~init ~spec:None () in
      let run_to_end bundle ms =
        List.iter (Predict.Engines.feed bundle) ms;
        Predict.Engines.finish bundle;
        (Predict.Engines.verdict_lines bundle, Predict.Engines.snapshots bundle)
      in
      let expected = run_to_end (create ()) messages in
      List.iter
        (fun cut ->
          let label = Printf.sprintf "%s cut=%d/%d" name cut n in
          let before = create () in
          List.iteri (fun i m -> if i < cut then Predict.Engines.feed before m) messages;
          let blocks = Predict.Engines.snapshots before in
          let resumed =
            Predict.Engines.restore ~kinds ~nthreads ~spec:None ~online_snapshot:None
              ~blocks ~events:(Predict.Engines.events before) ()
          in
          Alcotest.(check (list (pair string (list string))))
            (label ^ ": snapshot -> restore -> snapshot") blocks
            (Predict.Engines.snapshots resumed);
          let verdicts, final =
            run_to_end resumed (List.filteri (fun i _ -> i >= cut) messages)
          in
          Alcotest.(check (list (pair string string)))
            (label ^ ": resumed verdicts") (fst expected) verdicts;
          Alcotest.(check (list (pair string (list string))))
            (label ^ ": resumed final snapshot") (snd expected) final)
        [ 1; n / 5; n / 2; (4 * n) / 5; n - 1 ])
    [ ("race", [ PE.Race ]);
      ("atomicity", [ PE.Atomicity ]);
      ("race+atomicity", [ PE.Race; PE.Atomicity ]) ]

(* {1 Restore checks} *)

let lock_counter_messages ~threads ~iters =
  let exec =
    exec_of_program ~seed:5 (Tml.Parser.parse_program (lock_counter_source ~threads ~iters))
  in
  (exec, Observer.Channel.bounded_reorder ~seed:11 ~window:64 (PE.messages_of_exec exec))

let bundle exec kinds =
  Predict.Engines.create ~kinds ~nthreads:(Trace.Exec.nthreads exec)
    ~init:(Trace.Exec.init exec) ~spec:None ()

let restore_blocks exec kinds blocks ~events =
  Predict.Engines.restore ~kinds ~nthreads:(Trace.Exec.nthreads exec) ~spec:None
    ~online_snapshot:None ~blocks ~events ()

let linear_block b = List.assoc "linear" (Predict.Engines.snapshots b)

let both = [ PE.Race; PE.Atomicity ]

let refused label f =
  match f () with
  | _ -> Alcotest.failf "%s: restored" label
  | exception Invalid_argument _ -> ()

(* [f] applied to every clock of the line starting [key ]. *)
let map_clocks key f lines =
  List.map
    (fun l ->
      if String.starts_with ~prefix:(key ^ " ") l then
        String.concat " "
          (List.map
             (fun w -> if w <> "" && w.[0] = '(' then f w else w)
             (String.split_on_char ' ' l))
      else l)
    lines

let narrower clock =
  let parts = String.split_on_char ',' (String.sub clock 1 (String.length clock - 2)) in
  "(" ^ String.concat "," (List.filteri (fun i _ -> i < List.length parts - 1) parts) ^ ")"

let drop_last_clock key lines =
  List.map
    (fun l ->
      if String.starts_with ~prefix:(key ^ " ") l then
        String.concat " " (List.rev (List.tl (List.rev (String.split_on_char ' ' l))))
      else l)
    lines

(* Every clock in a block must match the delivery buffer's thread count:
   a short [vi] array, or a narrow [vi], [va], [vw] or summary clock, is
   refused at restore instead of failing at the next feed.  A block in a
   layout this build no longer writes is refused by its version line. *)
let older_versions = [ ("linear", "linear 1"); ("race", "race 1"); ("atomicity", "atomicity 1") ]

let test_restore_checks_widths () =
  let exec, _ = lock_counter_messages ~threads:3 ~iters:2 in
  let messages = PE.messages_of_exec exec in
  let b = bundle exec both in
  List.iteri (fun i m -> if i < List.length messages / 2 then Predict.Engines.feed b m) messages;
  let events = Predict.Engines.events b in
  let linear = linear_block b in
  let restore blocks () = restore_blocks exec both blocks ~events in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " lines present") true
        (List.exists (String.starts_with ~prefix:(key ^ " ")) linear))
    [ "kv"; "la" ];
  (* The unmodified block restores. *)
  ignore (restore [ ("linear", linear) ] ());
  List.iter
    (fun (label, lines) -> refused label (restore [ ("linear", lines) ]))
    [ ("2 vi clocks", drop_last_clock "vi" linear);
      ("2-wide vi clocks", map_clocks "vi" narrower linear);
      ("2-wide va clock", map_clocks "kv" narrower linear);
      ("2-wide summary clock", map_clocks "la" narrower linear) ];
  List.iter
    (fun (name, version) ->
      match restore [ (name, version :: List.tl linear) ] () with
      | _ -> Alcotest.failf "%s: restored" version
      | exception Invalid_argument msg ->
          Alcotest.(check bool) (msg ^ " names " ^ version) true (contains msg version))
    older_versions;
  (* Through the stream front end, each refusal is a checkpoint error
     (exit 6 from the CLI). *)
  let doc =
    W.Framed3.encode
      { W.nthreads = Trace.Exec.nthreads exec; init = Trace.Exec.init exec }
      (PE.messages_of_exec exec)
  in
  let spec = Pastltl.Formula.True in
  in_temp_file (fun path ->
      ignore
        (Jmpax.Stream.run_string ~checkpoint:(path, 1) ~engines:both ~spec
           (String.sub doc 0 (String.length doc / 2)));
      let ck =
        match C.read path with Ok ck -> ck | Error e -> Alcotest.fail (C.error_to_string e)
      in
      let lines = List.assoc "linear" ck.C.ck_engines in
      List.iter
        (fun (label, engines) ->
          match
            Jmpax.Stream.run_string ~resume:{ ck with C.ck_engines = engines } ~engines:both
              ~spec doc
          with
          | Error (E.Checkpoint msg) when contains msg label -> ()
          | Error e -> Alcotest.failf "%s: wrong error: %s" label (E.to_string e)
          | Ok _ -> Alcotest.failf "%s: resumed" label)
        (("sync clock", [ ("linear", map_clocks "vi" narrower lines) ])
        :: List.map
             (fun (name, version) -> (version, [ (name, version :: List.tl lines) ]))
             older_versions))

(* The race+atomicity bundle parks each out-of-order message once, in
   its one delivery buffer: its budget usage is the race engine's
   alone. *)
let test_budget_counts_buffer_once () =
  let exec, messages = lock_counter_messages ~threads:16 ~iters:6 in
  let race = bundle exec [ PE.Race ] and pair = bundle exec both in
  let parked = ref 0 in
  List.iteri
    (fun i m ->
      Predict.Engines.feed race m;
      Predict.Engines.feed pair m;
      let u = Jmpax.Budget.usage race in
      parked := max !parked u.Jmpax.Budget.causal_buffered;
      if Jmpax.Budget.usage pair <> u then
        Alcotest.failf "message %d: race+atomicity usage differs from race-only" i)
    messages;
  Alcotest.(check bool) "messages were parked" true (!parked > 0)

(* {1 Out of order means held now}

   [Engines.out_of_order] counts messages held now, waiting for an
   earlier one, so the stream's peak out-of-order buffer — in its
   summary and in the [stream-stats] line of a checkpoint taken at the
   end — is the delivery buffer's peak, not a running count of every
   message that ever arrived early. *)
let test_peak_is_held_messages () =
  let exec =
    exec_of_program ~seed:1
      (Tml.Parser.parse_program (Lock_counter.source ~threads:16 ~iters:8 ~nops:0))
  in
  let messages =
    Observer.Channel.bounded_reorder ~seed:1 ~window:64 (PE.messages_of_exec exec)
  in
  let b = bundle exec both in
  let held =
    List.fold_left
      (fun peak m ->
        Predict.Engines.feed b m;
        max peak (Predict.Engines.causal_buffered b))
      0 messages
  in
  let doc =
    W.Framed3.encode
      { W.nthreads = Trace.Exec.nthreads exec; init = Trace.Exec.init exec }
      messages
  in
  in_temp_file (fun path ->
      let n = List.length messages in
      match
        Jmpax.Stream.run_string ~checkpoint:(path, n) ~engines:both
          ~spec:Pastltl.Formula.True doc
      with
      | Error e -> Alcotest.failf "stream: %s" (E.to_string e)
      | Ok o -> (
          Alcotest.(check bool) "messages were held" true (held > 0 && held < n);
          Alcotest.(check int) "stream peak" held o.Jmpax.Stream.s_stats.Jmpax.Stream.peak_buffered;
          match C.read path with
          | Ok ck -> Alcotest.(check int) "checkpoint peak" held ck.C.ck_peak_buffered
          | Error e -> Alcotest.fail (C.error_to_string e)))

(* {1 Front-end parity: check == stream, engine line for engine line} *)

let test_pipeline_stream_parity () =
  let program = Tml.Programs.racy_counter ~increments:2 in
  let spec = Pastltl.Formula.True in
  let config =
    { (Jmpax.Config.default ()) with Jmpax.Config.engines = [ PE.Race; PE.Atomicity ] }
  in
  let output = Jmpax.Pipeline.check ~config ~spec program in
  Alcotest.(check int) "two engine lines" 2
    (List.length output.Jmpax.Pipeline.engines);
  let exec = Option.get output.Jmpax.Pipeline.run.Tml.Vm.exec in
  let header =
    { W.nthreads = Trace.Exec.nthreads exec; init = Trace.Exec.init exec }
  in
  let doc = W.Framed3.encode header (PE.messages_of_exec exec) in
  match
    Jmpax.Stream.run_string ~engines:[ PE.Race; PE.Atomicity ] ~spec doc
  with
  | Error e -> Alcotest.failf "stream: %s" (E.to_string e)
  | Ok o ->
      List.iter2
        (fun (en, el) (sn, sl) ->
          Alcotest.(check string) "engine name" en sn;
          Alcotest.(check string) (en ^ " verdict line") el sl)
        output.Jmpax.Pipeline.engines o.Jmpax.Stream.s_engines;
      Alcotest.(check bool) "violated agrees" o.Jmpax.Stream.s_violated
        output.Jmpax.Pipeline.engines_violated

(* {1 Registry hygiene} *)

let test_kind_parsing () =
  (match PE.kinds_of_string "race,atomicity,race" with
  | Ok ks ->
      Alcotest.(check bool) "deduplicated, order kept" true (ks = [ PE.Race; PE.Atomicity ])
  | Error e -> Alcotest.failf "parse: %s" e);
  (match PE.kinds_of_string " lattice , race " with
  | Ok ks ->
      Alcotest.(check bool) "trimmed" true (ks = [ PE.Lattice; PE.Race ])
  | Error e -> Alcotest.failf "parse: %s" e);
  (match PE.kinds_of_string "turbo" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown engine accepted");
  match PE.kinds_of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty selection accepted"

let test_registered_engines () =
  let names = PE.names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [ "race"; "atomicity" ]

let () =
  Alcotest.run "engines"
    [ ( "differential",
        [ Alcotest.test_case "fixtures: engines == offline" `Quick
            test_engines_equal_offline_fixtures;
          QCheck_alcotest.to_alcotest qcheck_engines_equal_offline;
          Alcotest.test_case "verdict contents" `Quick
            test_engine_verdict_contents ] );
      ( "kill/resume",
        [ Alcotest.test_case "parity per engine set" `Quick
            test_kill_resume_per_engine;
          Alcotest.test_case "engine-set mismatch refused" `Quick
            test_resume_engine_set_mismatch;
          Alcotest.test_case "snapshot identity, reordered 16-thread trace" `Quick
            test_snapshot_identity ] );
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_race_oracle; qcheck_epoch_oracle; qcheck_epoch_invariant ] );
      ( "restore",
        [ Alcotest.test_case "clock widths checked on restore" `Quick
            test_restore_checks_widths ] );
      ( "budget",
        [ Alcotest.test_case "race+atomicity usage == race-only" `Quick
            test_budget_counts_buffer_once;
          Alcotest.test_case "peak out-of-order = messages held" `Quick
            test_peak_is_held_messages ] );
      ( "parity",
        [ Alcotest.test_case "check == stream verdict lines" `Quick
            test_pipeline_stream_parity ] );
      ( "registry",
        [ Alcotest.test_case "kind parsing" `Quick test_kind_parsing;
          Alcotest.test_case "race/atomicity registered" `Quick
            test_registered_engines ] ) ]
