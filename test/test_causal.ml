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
      snap_peak_buffered = 2;
      snap_delivered_total = 0 }
  in
  let c = Predict.Causal.restore snap in
  (* T1's head is ready and skipped; T2's is parked on it. *)
  Alcotest.(check (option (pair int int))) "parked on a ready head" (Some (1, 1))
    (Predict.Causal.missing c);
  Alcotest.(check (list int)) "released with the next feed" [ 12; 10; 11 ]
    (eids (Predict.Causal.feed c (msg ~eid:12 ~tid:0 [ 1; 0; 0 ])));
  Alcotest.(check int) "empty" 0 (Predict.Causal.buffered c)

let () =
  Alcotest.run "causal"
    [ ( "order parity",
        [ QCheck_alcotest.to_alcotest qcheck_order_parity;
          Alcotest.test_case "threads 2/5/17/64 x windows 1/4/64/1000" `Quick test_grid ] );
      ( "index",
        [ Alcotest.test_case "missing names the parked blocker" `Quick test_missing;
          Alcotest.test_case "restored deliverable heads" `Quick
            test_restore_deliverable_heads ] ) ]
