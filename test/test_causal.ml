(* Causal delivery: the event-driven [Predict.Causal] must release exactly
   the messages, in exactly the order, that repeated full passes over the
   threads release — the reference model below — on every call, also
   across a snapshot/restore taken midway, and [missing] must name the
   same blocker. *)

open Trace

(* {1 Reference model: the rescan drain}

   Each [feed] makes passes over all threads, delivering every visited
   thread's run of consecutive deliverable messages, until a whole pass
   makes no progress. *)
module Rescan = struct
  type t = {
    nthreads : int;
    delivered : int array;
    pending : (int, Message.t) Hashtbl.t array;
  }

  let create ~nthreads =
    { nthreads;
      delivered = Array.make nthreads 0;
      pending = Array.init nthreads (fun _ -> Hashtbl.create 8) }

  let deliverable t (m : Message.t) =
    let ok = ref true in
    for j = 0 to t.nthreads - 1 do
      if j <> m.Message.tid && t.delivered.(j) < Vclock.get m.Message.mvc j then
        ok := false
    done;
    !ok

  let drain t =
    let out = ref [] in
    let progress = ref true in
    while !progress do
      progress := false;
      for tid = 0 to t.nthreads - 1 do
        let continue = ref true in
        while !continue do
          let seq = t.delivered.(tid) + 1 in
          match Hashtbl.find_opt t.pending.(tid) seq with
          | Some m when deliverable t m ->
              Hashtbl.remove t.pending.(tid) seq;
              t.delivered.(tid) <- seq;
              out := m :: !out;
              progress := true
          | Some _ | None -> continue := false
        done
      done
    done;
    List.rev !out

  let feed t (m : Message.t) =
    Hashtbl.replace t.pending.(m.Message.tid) (Message.seq m) m;
    drain t

  let missing t =
    let res = ref None in
    (try
       for tid = 0 to t.nthreads - 1 do
         if Hashtbl.length t.pending.(tid) > 0 then begin
           let seq = t.delivered.(tid) + 1 in
           match Hashtbl.find_opt t.pending.(tid) seq with
           | None ->
               res := Some (tid, seq);
               raise Exit
           | Some m ->
               for j = 0 to t.nthreads - 1 do
                 if j <> tid && t.delivered.(j) < Vclock.get m.Message.mvc j then begin
                   res := Some (j, t.delivered.(j) + 1);
                   raise Exit
                 end
               done
         end
       done
     with Exit -> ());
    !res
end

(* {1 Random causal streams}

   Each step one thread ticks, having first joined another thread's
   clock with probability [join_pct]%: emission order is a causal
   linearization with contiguous per-thread indices, as Algorithm A
   emits under the all-events relevance. *)
let causal_stream ~seed ~threads ~events ~join_pct =
  let rng = Random.State.make [| seed; threads; events |] in
  let clocks = Array.init threads (fun _ -> Array.make threads 0) in
  List.init events (fun eid ->
      let t = Random.State.int rng threads in
      if Random.State.int rng 100 < join_pct then begin
        let u = Random.State.int rng threads in
        Array.iteri (fun j k -> clocks.(t).(j) <- max clocks.(t).(j) k) clocks.(u)
      end;
      clocks.(t).(t) <- clocks.(t).(t) + 1;
      Message.make ~eid ~tid:t ~var:"x" ~value:0 ~mvc:(Vclock.of_array clocks.(t)))

type case = {
  threads : int;
  window : int;
  events : int;
  join_pct : int;
  seed : int;
  cut : int;  (* snapshot/restore after this many feeds *)
  lose : bool;  (* drop one message, so delivery stalls for good *)
}

let gen_case =
  QCheck.Gen.(
    map
      (fun ((threads, window, events), (join_pct, seed, cut, lose)) ->
        { threads; window; events; join_pct; seed; cut = cut mod (events + 1); lose })
      (pair
         (triple (int_range 2 64) (oneof [ int_range 1 8; int_range 1 1000 ]) (int_range 1 400))
         (quad (int_bound 100) (int_bound 1_000_000) (int_bound 1000) bool)))

let print_case c =
  Printf.sprintf "threads=%d window=%d events=%d join=%d%% seed=%d cut=%d lose=%b" c.threads
    c.window c.events c.join_pct c.seed c.cut c.lose

let messages_of_case c =
  let ms =
    causal_stream ~seed:c.seed ~threads:c.threads ~events:c.events ~join_pct:c.join_pct
    |> Observer.Channel.bounded_reorder ~seed:c.seed ~window:c.window
  in
  if c.lose then List.filteri (fun i _ -> i <> c.seed mod c.events) ms else ms

let eids ms = List.map (fun (m : Message.t) -> m.Message.eid) ms
let pp_eids ms = String.concat " " (List.map string_of_int (eids ms))
let pp_missing = function None -> "none" | Some (t, s) -> Printf.sprintf "T%d#%d" t s

(* Feed both, comparing every call's release, the buffer size and the
   blocker; restore the event-driven side from its snapshot after
   [cut] feeds. *)
let agrees c =
  let reference = Rescan.create ~nthreads:c.threads in
  let causal = ref (Predict.Causal.create ~nthreads:c.threads ()) in
  List.iteri
    (fun i m ->
      if i = c.cut then causal := Predict.Causal.restore (Predict.Causal.snapshot !causal);
      let want = Rescan.feed reference m and got = Predict.Causal.feed !causal m in
      if eids want <> eids got then
        QCheck.Test.fail_reportf "feed %d (eid %d): rescan [%s], event-driven [%s]" i
          m.Message.eid (pp_eids want) (pp_eids got);
      let want = Rescan.missing reference and got = Predict.Causal.missing !causal in
      if want <> got then
        QCheck.Test.fail_reportf "feed %d: missing rescan %s, event-driven %s" i
          (pp_missing want) (pp_missing got))
    (messages_of_case c);
  let buffered = Array.fold_left (fun acc p -> acc + Hashtbl.length p) 0 reference.Rescan.pending in
  if buffered <> Predict.Causal.buffered !causal then
    QCheck.Test.fail_reportf "buffered: rescan %d, event-driven %d" buffered
      (Predict.Causal.buffered !causal);
  if not c.lose then Predict.Causal.finish !causal;
  true

let qcheck_order_parity =
  QCheck.Test.make ~name:"event-driven drain == rescan drain, call by call" ~count:300
    (QCheck.make ~print:print_case gen_case)
    agrees

(* The sizes and windows the ledger's linear workload uses, pinned. *)
let test_grid () =
  List.iter
    (fun threads ->
      List.iter
        (fun window ->
          List.iter
            (fun lose ->
              ignore
                (agrees
                   { threads; window; events = 600; join_pct = 30; seed = threads + window;
                     cut = 250; lose }))
            [ false; true ])
        [ 1; 4; 64; 1000 ])
    [ 2; 5; 17; 64 ]

let msg ~eid ~tid clock =
  Message.make ~eid ~tid ~var:"x" ~value:0 ~mvc:(Vclock.of_list clock)

(* [missing] reports the parked head's first unsatisfied thread, and a
   thread's own absent head before that. *)
let test_missing () =
  let c = Predict.Causal.create ~nthreads:3 () in
  Alcotest.(check (option (pair int int))) "empty" None (Predict.Causal.missing c);
  (* T0's first message needs T1#1 and T2#2. *)
  Alcotest.(check int) "parked" 0 (List.length (Predict.Causal.feed c (msg ~eid:0 ~tid:0 [ 1; 1; 2 ])));
  Alcotest.(check (option (pair int int))) "blocked on T1" (Some (1, 1))
    (Predict.Causal.missing c);
  Alcotest.(check int) "T1#1 releases itself only" 1
    (List.length (Predict.Causal.feed c (msg ~eid:1 ~tid:1 [ 0; 1; 0 ])));
  Alcotest.(check (option (pair int int))) "now blocked on T2" (Some (2, 1))
    (Predict.Causal.missing c);
  Alcotest.(check int) "T2#2 waits for T2#1" 0
    (List.length (Predict.Causal.feed c (msg ~eid:2 ~tid:2 [ 0; 0; 2 ])));
  Alcotest.(check (option (pair int int))) "still T2#1" (Some (2, 1))
    (Predict.Causal.missing c);
  let released = Predict.Causal.feed c (msg ~eid:3 ~tid:2 [ 0; 0; 1 ]) in
  Alcotest.(check (list int)) "T2's run, then T0" [ 3; 2; 0 ] (eids released);
  Alcotest.(check (option (pair int int))) "drained" None (Predict.Causal.missing c);
  Predict.Causal.finish c

(* A snapshot whose heads are already deliverable (a degrade handoff may
   carry one) releases them on the next feed, in pass order. *)
let test_restore_deliverable_heads () =
  let snap =
    { Predict.Causal.snap_delivered = [| 0; 0; 0 |];
      snap_ended = [| false; false; false |];
      snap_pending = [ msg ~eid:10 ~tid:1 [ 0; 1; 0 ]; msg ~eid:11 ~tid:2 [ 0; 1; 1 ] ];
      snap_peak_buffered = 2 }
  in
  let c = Predict.Causal.restore snap in
  (* T1's head is ready and skipped; T2's is parked on it. *)
  Alcotest.(check (option (pair int int))) "parked on a ready head" (Some (1, 1))
    (Predict.Causal.missing c);
  Alcotest.(check (list int)) "released with the next feed" [ 12; 10; 11 ]
    (eids (Predict.Causal.feed c (msg ~eid:12 ~tid:0 [ 1; 0; 0 ])));
  Alcotest.(check int) "empty" 0 (Predict.Causal.buffered c)

(* {1 The pending buffer against a hash-table model}

   [Table] keeps each thread's pending messages in a hash table keyed
   by [seq], as the buffer did before its rings: it delivers through
   [Rescan]'s passes and rejects duplicates, and it snapshots and
   restores.  Streams here send some messages far out of order (beyond
   the ring's 1,024-slot reach) and repeat others, and both sides must
   agree on every release, every rejection, [buffered], [missing],
   [peak_buffered], the snapshot and the future after [restore]. *)
module Table = struct
  type t = { r : Rescan.t; mutable buffered : int; mutable peak : int }

  let create ~nthreads = { r = Rescan.create ~nthreads; buffered = 0; peak = 0 }

  let feed t (m : Message.t) =
    let tid = m.Message.tid and seq = Message.seq m in
    if seq <= t.r.Rescan.delivered.(tid) || Hashtbl.mem t.r.Rescan.pending.(tid) seq then
      invalid_arg
        (Printf.sprintf "Causal.feed: duplicate message (thread %d, index %d)" tid seq);
    t.buffered <- t.buffered + 1;
    t.peak <- max t.peak t.buffered;
    let out = Rescan.feed t.r m in
    t.buffered <- t.buffered - List.length out;
    out

  let pending t =
    Array.to_list t.r.Rescan.pending
    |> List.concat_map (fun table -> Hashtbl.fold (fun _ m acc -> m :: acc) table [])
    |> List.sort (fun (a : Message.t) (b : Message.t) ->
           compare (a.Message.tid, Message.seq a) (b.Message.tid, Message.seq b))
end

type arrival = {
  a_threads : int;
  a_events : int;
  a_join : int;
  a_seed : int;
  a_order : [ `Window of int | `Hold of int | `Shuffle ];
  a_dups : int;  (* repeated messages *)
  a_cut : int;
}

let print_arrival a =
  Printf.sprintf "threads=%d events=%d join=%d%% seed=%d order=%s dups=%d cut=%d" a.a_threads
    a.a_events a.a_join a.a_seed
    (match a.a_order with
    | `Window w -> Printf.sprintf "window %d" w
    | `Hold k -> Printf.sprintf "hold %d" k
    | `Shuffle -> "shuffle")
    a.a_dups a.a_cut

let gen_arrival =
  QCheck.Gen.(
    map
      (fun ((threads, events, join), (seed, order, dups, cut)) ->
        { a_threads = threads; a_events = events; a_join = join; a_seed = seed;
          a_order = order; a_dups = dups; a_cut = cut mod (events + dups + 1) })
      (pair
         (triple (int_range 1 6) (oneof [ int_range 1 200; int_range 1100 2600 ]) (int_bound 60))
         (quad (int_bound 1_000_000)
            (oneof
               [ map (fun w -> `Window w) (int_range 1 2000);
                 map (fun k -> `Hold k) (int_range 1 4);
                 return `Shuffle ])
            (int_bound 20) (int_bound 3000))))

(* The arrival order: a bounded reorder, a full shuffle, or the stream
   with [k] early messages of one thread held back to the very end,
   which parks that thread's whole run behind them, far past the
   ring's reach once the thread has sent more than 1,024.  Then copies
   of [dups] random messages go in at random later points. *)
let arrivals a =
  let ms = causal_stream ~seed:a.a_seed ~threads:a.a_threads ~events:a.a_events ~join_pct:a.a_join in
  let rng = Random.State.make [| a.a_seed; 7 |] in
  let ordered =
    match a.a_order with
    | `Window w -> Observer.Channel.bounded_reorder ~seed:a.a_seed ~window:w ms
    | `Shuffle -> Observer.Channel.shuffle ~seed:a.a_seed ms
    | `Hold k ->
        let held = List.filteri (fun i (m : Message.t) -> m.Message.tid = 0 && i < 4 * k && Message.seq m <= k) ms in
        List.filter (fun m -> not (List.memq m held)) ms @ held
  in
  let arr = ref (Array.of_list ordered) in
  for _ = 1 to a.a_dups do
    let n = Array.length !arr in
    let src = Random.State.int rng n in
    let dst = src + 1 + Random.State.int rng (n - src) in
    arr := Array.concat [ Array.sub !arr 0 dst; [| !arr.(src) |]; Array.sub !arr dst (n - dst) ]
  done;
  Array.to_list !arr

let pp_snapshot (s : Predict.Causal.snapshot) =
  Printf.sprintf "delivered [%s] pending [%s] peak %d"
    (String.concat " " (Array.to_list (Array.map string_of_int s.Predict.Causal.snap_delivered)))
    (pp_eids s.Predict.Causal.snap_pending) s.Predict.Causal.snap_peak_buffered

let result f = match f () with x -> Ok x | exception Invalid_argument e -> Error e

let agrees_with_table a =
  let model = Table.create ~nthreads:a.a_threads in
  let causal = ref (Predict.Causal.create ~nthreads:a.a_threads ()) in
  List.iteri
    (fun i m ->
      if i = a.a_cut then begin
        let snap = Predict.Causal.snapshot !causal in
        let want =
          { Predict.Causal.snap_delivered = Array.copy model.Table.r.Rescan.delivered;
            snap_ended = Array.make a.a_threads false;
            snap_pending = Table.pending model;
            snap_peak_buffered = model.Table.peak }
        in
        if snap <> want then
          QCheck.Test.fail_reportf "snapshot after %d feeds:\nmodel %s\nrings %s" i
            (pp_snapshot want) (pp_snapshot snap);
        causal := Predict.Causal.restore snap
      end;
      (match (result (fun () -> Table.feed model m), result (fun () -> Predict.Causal.feed !causal m)) with
      | Ok want, Ok got when eids want = eids got -> ()
      | Error want, Error got when want = got -> ()
      | want, got ->
          let show = function Ok ms -> "[" ^ pp_eids ms ^ "]" | Error e -> e in
          QCheck.Test.fail_reportf "feed %d (eid %d): model %s, rings %s" i m.Message.eid
            (show want) (show got));
      let check what want got =
        if want <> got then QCheck.Test.fail_reportf "feed %d: %s model %d, rings %d" i what want got
      in
      check "buffered" model.Table.buffered (Predict.Causal.buffered !causal);
      check "peak_buffered" model.Table.peak (Predict.Causal.peak_buffered !causal);
      let want = Rescan.missing model.Table.r and got = Predict.Causal.missing !causal in
      if want <> got then
        QCheck.Test.fail_reportf "feed %d: missing model %s, rings %s" i (pp_missing want)
          (pp_missing got))
    (arrivals a);
  (match result (fun () -> Predict.Causal.finish !causal) with
  | Ok () when model.Table.buffered = 0 -> ()
  | Error _ when model.Table.buffered > 0 -> ()
  | _ -> QCheck.Test.fail_reportf "finish disagrees (%d buffered)" model.Table.buffered);
  true

let qcheck_table =
  QCheck.Test.make ~name:"rings == hash-table model: arrivals far ahead, duplicates, restore"
    ~count:150 (QCheck.make ~print:print_arrival gen_arrival) agrees_with_table

(* A message whose [seq] is 2^40 (a clock component any wire frame may
   carry) is held beside the rings, not in a ring 2^40 slots long:
   the buffer stays a few words and [mem_words] counts them, and the
   message is buffered, named missing, snapshotted and restored as any
   other, and delivered once its predecessors arrive. *)
let test_forged_seq () =
  let c = Predict.Causal.create ~nthreads:2 () in
  let empty = Obj.reachable_words (Obj.repr c) in
  let far = msg ~eid:0 ~tid:0 [ 1 lsl 40; 0 ] in
  Alcotest.(check int) "held" 0 (List.length (Predict.Causal.feed c far));
  Alcotest.(check int) "buffered" 1 (Predict.Causal.buffered c);
  Alcotest.(check (option (pair int int))) "missing" (Some (0, 1)) (Predict.Causal.missing c);
  let grown = Obj.reachable_words (Obj.repr c) - empty in
  if grown > 64 then Alcotest.failf "the buffer grew by %d words" grown;
  if Predict.Causal.mem_words c < grown then
    Alcotest.failf "mem_words %d below the %d words the buffer grew" (Predict.Causal.mem_words c)
      grown;
  Alcotest.(check bool) "rejects it twice" true
    (match Predict.Causal.feed c far with _ -> false | exception Invalid_argument _ -> true);
  let snap = Predict.Causal.snapshot c in
  Alcotest.(check (list int)) "snapshot" [ 0 ] (eids snap.Predict.Causal.snap_pending);
  let r = Predict.Causal.restore snap in
  Alcotest.(check bool) "restored snapshot" true (Predict.Causal.snapshot r = snap);
  Alcotest.(check (list int)) "T0#1 delivers, the far one stays" [ 1 ]
    (eids (Predict.Causal.feed r (msg ~eid:1 ~tid:0 [ 1; 0 ])));
  Alcotest.(check (option (pair int int))) "missing T0#2" (Some (0, 2)) (Predict.Causal.missing r);
  Alcotest.check_raises "finish names the gap"
    (Invalid_argument
       "Causal.finish: 1 buffered messages cannot be delivered (thread 0 is missing index 2)")
    (fun () -> Predict.Causal.finish r)

(* [mem_words] bounds what the buffer really holds, messages included
   (at most 16 words each at this width), while rings grow and messages
   wait beyond their reach.  What it leaves out is fixed: the per-thread
   arrays and the empty-slot marker, read off a buffer that has
   delivered one message. *)
let test_mem_words_bound () =
  let a =
    { a_threads = 3; a_events = 2500; a_join = 20; a_seed = 4; a_order = `Hold 2; a_dups = 0;
      a_cut = 0 }
  in
  let c = Predict.Causal.create ~nthreads:3 () in
  ignore (Predict.Causal.feed c (msg ~eid:0 ~tid:0 [ 1; 0; 0 ]));
  let empty = Obj.reachable_words (Obj.repr c) - Predict.Causal.mem_words c in
  let c = Predict.Causal.create ~nthreads:3 () in
  let peak = ref 0 in
  List.iteri
    (fun i m ->
      ignore (Predict.Causal.feed c m);
      peak := max !peak (Predict.Causal.buffered c);
      if i mod 97 = 0 then begin
        let real = Obj.reachable_words (Obj.repr c) - empty in
        if Predict.Causal.mem_words c < real then
          Alcotest.failf "feed %d: mem_words %d, buffer %d words" i (Predict.Causal.mem_words c)
            real
      end)
    (arrivals a);
  Alcotest.(check bool) "messages waited beyond the reach" true (!peak > 1024);
  Predict.Causal.finish c

let () =
  Alcotest.run "causal"
    [ ( "order parity",
        [ QCheck_alcotest.to_alcotest qcheck_order_parity;
          Alcotest.test_case "threads 2/5/17/64 x windows 1/4/64/1000" `Quick test_grid ] );
      ( "index",
        [ Alcotest.test_case "missing names the parked blocker" `Quick test_missing;
          Alcotest.test_case "restored deliverable heads" `Quick
            test_restore_deliverable_heads ] );
      ( "rings",
        [ QCheck_alcotest.to_alcotest qcheck_table;
          Alcotest.test_case "forged seq 2^40 stays small" `Quick test_forged_seq;
          Alcotest.test_case "mem_words bounds the buffer" `Quick test_mem_words_bound ] ) ]
