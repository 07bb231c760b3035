(* Tests for Algorithm A: the paper's requirements (a), (b), (c) and
   Theorem 3, validated event-by-event against the brute-force causality
   oracle on random executions. *)

open Trace

type action = A_internal | A_read of string | A_write of string * int

let vars_pool = [ "x"; "y"; "z" ]

let build_exec ~nthreads steps =
  let b = Exec.builder ~nthreads ~init:[] in
  List.iter
    (fun (tid, action) ->
      match action with
      | A_internal -> ignore (Exec.add_internal b tid)
      | A_read x -> ignore (Exec.add_read b tid x 0)
      | A_write (x, v) -> ignore (Exec.add_write b tid x v))
    steps;
  Exec.freeze b

let gen_action =
  QCheck.Gen.(
    frequency
      [ (1, return A_internal);
        (3, map (fun x -> A_read x) (oneofl vars_pool));
        (4, map2 (fun x v -> A_write (x, v)) (oneofl vars_pool) (int_bound 9)) ])

let gen_steps ~nthreads =
  QCheck.Gen.(list_size (int_range 1 30) (pair (int_bound (nthreads - 1)) gen_action))

let print_steps steps =
  String.concat ";"
    (List.map
       (fun (tid, a) ->
         Printf.sprintf "T%d:%s" tid
           (match a with
           | A_internal -> "i"
           | A_read x -> "r" ^ x
           | A_write (x, v) -> Printf.sprintf "w%s=%d" x v))
       steps)

let arb_steps ~nthreads = QCheck.make ~print:print_steps (gen_steps ~nthreads)

(* Replay an execution through Algorithm A, returning the emitted
   messages (eid -> mvc) in order. *)
let replay ~relevance exec =
  let algo = Mvc.Algorithm.create ~nthreads:(Exec.nthreads exec) ~relevance in
  let messages = ref [] in
  Array.iter
    (fun (e : Event.t) ->
      match Mvc.Algorithm.process algo e.tid e.kind with
      | Some mvc -> messages := (e, mvc) :: !messages
      | None -> ())
    (Exec.events exec);
  (algo, List.rev !messages)

let relevance_writes = Mvc.Relevance.writes_of_vars vars_pool
let relevant_event (e : Event.t) = Mvc.Relevance.is_relevant relevance_writes e.kind

(* {1 Relevance} *)

let test_relevance_policies () =
  let w = Event.Write ("x", 1) in
  let r = Event.Read ("x", 1) in
  let lockw = Event.Write (Types.lock_var "m", 1) in
  Alcotest.(check bool) "writes_of_vars accepts write" true
    (Mvc.Relevance.is_relevant (Mvc.Relevance.writes_of_vars [ "x" ]) w);
  Alcotest.(check bool) "writes_of_vars rejects other var" false
    (Mvc.Relevance.is_relevant (Mvc.Relevance.writes_of_vars [ "y" ]) w);
  Alcotest.(check bool) "writes_of_vars rejects read" false
    (Mvc.Relevance.is_relevant (Mvc.Relevance.writes_of_vars [ "x" ]) r);
  Alcotest.(check bool) "all_writes rejects sync vars" false
    (Mvc.Relevance.is_relevant Mvc.Relevance.all_writes lockw);
  Alcotest.(check bool) "nothing rejects all" false
    (Mvc.Relevance.is_relevant Mvc.Relevance.nothing w);
  Alcotest.(check (option (list string))) "variables of writes_of_vars" (Some [ "x"; "y" ])
    (Mvc.Relevance.variables (Mvc.Relevance.writes_of_vars [ "y"; "x"; "y" ]))

(* {1 Algorithm A on the paper's examples} *)

let test_paper_xyz_clocks () =
  (* The exact execution of Example 2 / Fig. 6. *)
  let steps =
    [ (0, A_read "x"); (0, A_write ("x", 0));
      (1, A_read "x"); (1, A_write ("z", 1));
      (0, A_read "x");
      (1, A_read "x"); (1, A_write ("x", 1));
      (0, A_write ("y", 1)) ]
  in
  let exec = build_exec ~nthreads:2 steps in
  let _, messages = replay ~relevance:relevance_writes exec in
  let clocks = List.map (fun (_, v) -> Vclock.to_list v) messages in
  Alcotest.(check (list (list int)))
    "e1 (1,0); e2 (1,1); e4 (1,2); e3 (2,0)"
    [ [ 1; 0 ]; [ 1; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]
    clocks

let test_internal_events_do_not_move_clocks () =
  let exec = build_exec ~nthreads:2 [ (0, A_internal); (1, A_internal); (0, A_internal) ] in
  let algo, messages = replay ~relevance:relevance_writes exec in
  Alcotest.(check int) "no messages" 0 (List.length messages);
  Alcotest.(check (list int)) "V_0 stays zero" [ 0; 0 ]
    (Vclock.to_list (Mvc.Algorithm.thread_clock algo 0))

let test_write_joins_access_clock () =
  (* T0 reads x (access clock picks up T0), T1 writes x: T1's clock must
     absorb the read's knowledge. *)
  let exec =
    build_exec ~nthreads:2 [ (0, A_write ("y", 1)); (0, A_read "x"); (1, A_write ("x", 2)) ]
  in
  let algo, _ = replay ~relevance:relevance_writes exec in
  Alcotest.(check (list int)) "T1 knows T0's relevant write" [ 1; 1 ]
    (Vclock.to_list (Mvc.Algorithm.thread_clock algo 1))

let test_read_does_not_update_write_clock () =
  let exec = build_exec ~nthreads:2 [ (0, A_write ("x", 1)); (1, A_read "x") ] in
  let algo, _ = replay ~relevance:relevance_writes exec in
  Alcotest.(check (list int)) "V^w_x unchanged by the read" [ 1; 0 ]
    (Vclock.to_list (Mvc.Algorithm.write_clock algo "x"));
  Alcotest.(check (list int)) "V^a_x updated by the read" [ 1; 0 ]
    (Vclock.to_list (Mvc.Algorithm.access_clock algo "x"))

let test_process_validation () =
  let algo = Mvc.Algorithm.create ~nthreads:2 ~relevance:relevance_writes in
  Alcotest.check_raises "bad thread id" (Invalid_argument "Algorithm.process: bad thread id")
    (fun () -> ignore (Mvc.Algorithm.process algo 2 Event.Internal));
  Alcotest.check_raises "create with 0 threads"
    (Invalid_argument "Algorithm.create: nthreads must be positive") (fun () ->
      ignore (Mvc.Algorithm.create ~nthreads:0 ~relevance:relevance_writes))

(* {1 Requirements (a), (b), (c)} *)

(* After processing event e^k_i, check the three requirements against the
   brute-force oracle. Formally (paper, Section 3), V^a_x / V^w_x encode
   the indexed sets (e^k_i]^a_x / (e^k_i]^w_x: relevant events that equal
   or causally precede SOME access (resp. write) of x occurring so far —
   a union over all such accesses, not just the latest. *)
let check_requirements exec =
  let nthreads = Exec.nthreads exec in
  let c = Causality.compute exec in
  let evs = Exec.events exec in
  let algo = Mvc.Algorithm.create ~nthreads ~relevance:relevance_writes in
  let relevant = relevant_event in
  (* All accesses / writes of each variable seen so far (eids). *)
  let accesses_of = Hashtbl.create 4 in
  let writes_of = Hashtbl.create 4 in
  let ok = ref true in
  (* Number of relevant events of thread j equal to or preceding some
     event in [anchors]. *)
  let union_count anchors j =
    let covered (f : Event.t) =
      List.exists (fun eid -> f.eid = eid || Causality.precedes c f.eid eid) anchors
    in
    Array.to_list evs
    |> List.filter (fun f -> f.Event.tid = j && relevant f && covered f)
    |> List.length
  in
  Array.iter
    (fun (e : Event.t) ->
      ignore (Mvc.Algorithm.process algo e.tid e.kind);
      (match Event.variable e with
      | Some x ->
          Hashtbl.replace accesses_of x
            (e.eid :: Option.value ~default:[] (Hashtbl.find_opt accesses_of x));
          if Event.is_write e then
            Hashtbl.replace writes_of x
              (e.eid :: Option.value ~default:[] (Hashtbl.find_opt writes_of x))
      | None -> ());
      (* (a): V_i[j] counts relevant events of t_j preceding (or equal,
         when i = j and e relevant) the current event of t_i. *)
      let vi = Mvc.Algorithm.thread_clock algo e.tid in
      for j = 0 to nthreads - 1 do
        if Vclock.get vi j <> Causality.downset_count c ~relevant e.eid j then ok := false
      done;
      (* (b) and (c) for every variable seen so far. *)
      Hashtbl.iter
        (fun x anchors ->
          let va = Mvc.Algorithm.access_clock algo x in
          for j = 0 to nthreads - 1 do
            if Vclock.get va j <> union_count anchors j then ok := false
          done)
        accesses_of;
      Hashtbl.iter
        (fun x anchors ->
          let vw = Mvc.Algorithm.write_clock algo x in
          for j = 0 to nthreads - 1 do
            if Vclock.get vw j <> union_count anchors j then ok := false
          done)
        writes_of;
      if not (Mvc.Algorithm.invariant algo) then ok := false)
    (Exec.events exec);
  !ok

let prop_requirements_2 =
  QCheck.Test.make ~name:"requirements (a),(b),(c) — 2 threads" ~count:300
    (arb_steps ~nthreads:2) (fun steps ->
      check_requirements (build_exec ~nthreads:2 steps))

let prop_requirements_3 =
  QCheck.Test.make ~name:"requirements (a),(b),(c) — 3 threads" ~count:300
    (arb_steps ~nthreads:3) (fun steps ->
      check_requirements (build_exec ~nthreads:3 steps))

(* {1 Theorem 3} *)

let check_theorem3 nthreads steps =
  let exec = build_exec ~nthreads steps in
  let c = Causality.compute exec in
  let _, messages = replay ~relevance:relevance_writes exec in
  let ok = ref true in
  List.iter
    (fun ((e : Event.t), v) ->
      List.iter
        (fun ((e' : Event.t), v') ->
          if e.eid <> e'.eid then begin
            let causal = Causality.relevant_precedes c ~relevant:relevant_event e.eid e'.eid in
            let thm_index = Vclock.get v e.tid <= Vclock.get v' e.tid in
            let thm_order = Vclock.lt v v' in
            if causal <> thm_index then ok := false;
            if causal <> thm_order then ok := false
          end)
        messages)
    messages;
  !ok

let prop_theorem3_2 =
  QCheck.Test.make ~name:"Theorem 3 (e ⊳ e' iff V[i] <= V'[i] iff V < V') — 2 threads"
    ~count:300 (arb_steps ~nthreads:2) (fun steps -> check_theorem3 2 steps)

let prop_theorem3_3 =
  QCheck.Test.make ~name:"Theorem 3 — 3 threads" ~count:300 (arb_steps ~nthreads:3)
    (fun steps -> check_theorem3 3 steps)

let prop_theorem3_4 =
  QCheck.Test.make ~name:"Theorem 3 — 4 threads" ~count:150 (arb_steps ~nthreads:4)
    (fun steps -> check_theorem3 4 steps)

(* Concurrency between messages must also agree with the oracle. *)
let prop_concurrent_agrees =
  QCheck.Test.make ~name:"message concurrency agrees with oracle" ~count:300
    (arb_steps ~nthreads:3) (fun steps ->
      let exec = build_exec ~nthreads:3 steps in
      let c = Causality.compute exec in
      let algo = Mvc.Algorithm.create ~nthreads:3 ~relevance:relevance_writes in
      let messages = ref [] in
      Array.iter
        (fun (e : Event.t) ->
          match Mvc.Algorithm.process algo e.tid e.kind with
          | Some mvc ->
              let var, value =
                match e.kind with Event.Write (x, v) -> (x, v) | _ -> assert false
              in
              messages := Message.make ~eid:e.eid ~tid:e.tid ~var ~value ~mvc :: !messages
          | None -> ())
        (Exec.events exec);
      let messages = List.rev !messages in
      List.for_all
        (fun (m : Message.t) ->
          List.for_all
            (fun (m' : Message.t) ->
              m.eid = m'.eid
              || Message.concurrent m m' = Causality.concurrent c m.eid m'.eid)
            messages)
        messages)

(* {1 Theorem 3 on real program executions} *)

(* The synthetic-execution properties above do not exercise lock and
   wait/notify lowering; VM-produced executions do. *)
let test_theorem3_on_program_executions () =
  let relevance = Mvc.Relevance.all_writes in
  let relevant (e : Event.t) = Mvc.Relevance.is_relevant relevance e.kind in
  List.iter
    (fun (name, program) ->
      List.iter
        (fun seed ->
          let r =
            Tml.Vm.run_program ~fuel:2_000 ~relevance ~sched:(Tml.Sched.random ~seed)
              program
          in
          let exec = Option.get r.Tml.Vm.exec in
          let c = Causality.compute exec in
          let messages = r.Tml.Vm.messages in
          List.iter
            (fun (m : Message.t) ->
              List.iter
                (fun (m' : Message.t) ->
                  if m.eid <> m'.eid then begin
                    let causal = Causality.relevant_precedes c ~relevant m.eid m'.eid in
                    let thm = Vclock.get m.mvc m.tid <= Vclock.get m'.mvc m.tid in
                    if causal <> thm then
                      Alcotest.failf "%s seed %d: Theorem 3 broken between e%d and e%d"
                        name seed m.eid m'.eid
                  end)
                messages)
            messages)
        [ 3; 17 ])
    [ ("locked-counter", Tml.Programs.locked_counter ~increments:2);
      ("bank-ordered", Tml.Programs.bank_transfer_ordered);
      ("producer-consumer", Tml.Programs.producer_consumer ~items:2);
      ("peterson", Tml.Programs.peterson);
      ("fork-join", Tml.Programs.fork_join ~workers:2) ]

(* {1 Emitter} *)

let test_emitter_collects () =
  let em =
    Mvc.Emitter.create ~nthreads:2 ~init:[ ("x", 0) ] ~relevance:relevance_writes ()
  in
  Mvc.Emitter.on_internal em 0;
  Mvc.Emitter.on_write em 0 "x" 5;
  Mvc.Emitter.on_read em 1 "x" 5;
  Mvc.Emitter.on_write em 1 "y" 6;
  let exec, messages = Mvc.Emitter.finish em in
  Alcotest.(check int) "4 events recorded" 4 (Exec.length exec);
  Alcotest.(check int) "2 messages" 2 (List.length messages);
  let m2 = List.nth messages 1 in
  Alcotest.(check (list int)) "second write saw the first through the read" [ 1; 1 ]
    (Vclock.to_list m2.Message.mvc)

let test_emitter_sink () =
  let seen = ref [] in
  let em =
    Mvc.Emitter.create ~nthreads:1 ~init:[] ~relevance:relevance_writes
      ~sink:(fun m -> seen := m :: !seen)
      ()
  in
  Mvc.Emitter.on_write em 0 "x" 1;
  Mvc.Emitter.on_write em 0 "y" 2;
  Alcotest.(check int) "sink saw both" 2 (List.length !seen)

(* {1 Dynamic threads (spawn/join)} *)

(* A dynamic execution: a list of steps over thread ids that need no
   pre-declaration. *)
type dstep =
  | D_spawn of int * int  (* parent, child *)
  | D_join of int * int
  | D_event of int * action

let replay_dynamic ~relevance steps =
  let algo = Mvc.Dynamic.create ~relevance in
  let emitted = ref [] in
  List.iteri
    (fun idx step ->
      match step with
      | D_spawn (p, c) -> Mvc.Dynamic.spawn algo ~parent:p ~child:c
      | D_join (p, c) -> Mvc.Dynamic.join algo ~parent:p ~child:c
      | D_event (tid, a) ->
          let kind =
            match a with
            | A_internal -> Event.Internal
            | A_read x -> Event.Read (x, 0)
            | A_write (x, v) -> Event.Write (x, v)
          in
          (match Mvc.Dynamic.process algo tid kind with
          | Some v -> emitted := (idx, tid, v) :: !emitted
          | None -> ()))
    steps;
  (algo, List.rev !emitted)

(* Ground truth: brute-force happens-before over the dynamic execution,
   with spawn edges (parent's past precedes child's events) and join
   edges (child's past precedes parent's later events). *)
let dynamic_oracle steps =
  let n = List.length steps in
  let arr = Array.of_list steps in
  let reach = Array.init n (fun _ -> Array.make n false) in
  let actor = function D_spawn (p, _) -> p | D_join (p, _) -> p | D_event (t, _) -> t in
  (* Spawn/join steps belong to the parent's program order; a spawned
     child's program order starts after the spawn; a join pulls the
     child's history into the parent. *)
  let belongs_to tid i =
    match arr.(i) with
    | D_spawn (p, c) -> p = tid || c = tid
    | D_join (p, _) -> p = tid
    | D_event (t, _) -> t = tid
  in
  for b = 0 to n - 1 do
    for a = 0 to b - 1 do
      let direct =
        (* program order of some thread *)
        (let shared_thread tid = belongs_to tid a && belongs_to tid b in
         List.exists shared_thread [ actor arr.(a); actor arr.(b) ]
         ||
         match (arr.(a), arr.(b)) with
         | D_spawn (_, c), _ when belongs_to c b -> true
         | _, D_join (_, c) when belongs_to c a -> true
         | _ -> false)
        ||
        (* conflicting variable accesses *)
        (match (arr.(a), arr.(b)) with
        | D_event (_, ea), D_event (_, eb) -> (
            let var_of = function
              | A_internal -> None
              | A_read x -> Some (x, false)
              | A_write (x, _) -> Some (x, true)
            in
            match (var_of ea, var_of eb) with
            | Some (x, wa), Some (y, wb) -> x = y && (wa || wb)
            | _ -> false)
        | _ -> false)
      in
      if direct then reach.(a).(b) <- true
    done
  done;
  for b = 0 to n - 1 do
    for a = 0 to b - 1 do
      if reach.(a).(b) then
        for c = b + 1 to n - 1 do
          if reach.(b).(c) then reach.(a).(c) <- true
        done
    done
  done;
  reach

let test_dynamic_spawn_inherits () =
  let steps =
    [ D_event (0, A_write ("x", 1)); D_spawn (0, 1); D_event (1, A_write ("y", 2)) ]
  in
  let algo, emitted = replay_dynamic ~relevance:relevance_writes steps in
  (match emitted with
  | [ (_, 0, v0); (_, 1, v1) ] ->
      Alcotest.(check int) "child saw parent's write" 1 (Dvclock.get v1 0);
      Alcotest.(check int) "child's own count" 1 (Dvclock.get v1 1);
      Alcotest.(check bool) "parent write precedes child write" true (Dvclock.lt v0 v1)
  | _ -> Alcotest.fail "expected two emissions");
  Alcotest.(check (list int)) "threads seen" [ 0; 1 ] (Mvc.Dynamic.threads_seen algo)

let test_dynamic_spawn_concurrent_siblings () =
  let steps =
    [ D_spawn (0, 1); D_spawn (0, 2); D_event (1, A_write ("x", 1));
      D_event (2, A_write ("y", 2)) ]
  in
  let _, emitted = replay_dynamic ~relevance:relevance_writes steps in
  match emitted with
  | [ (_, 1, v1); (_, 2, v2) ] ->
      Alcotest.(check bool) "siblings concurrent" true (Dvclock.concurrent v1 v2)
  | _ -> Alcotest.fail "expected two emissions"

let test_dynamic_join () =
  let steps =
    [ D_spawn (0, 1); D_event (1, A_write ("x", 1)); D_join (0, 1);
      D_event (0, A_write ("y", 2)) ]
  in
  let _, emitted = replay_dynamic ~relevance:relevance_writes steps in
  match emitted with
  | [ (_, 1, v1); (_, 0, v0) ] ->
      Alcotest.(check bool) "joined child precedes parent's next write" true
        (Dvclock.lt v1 v0)
  | _ -> Alcotest.fail "expected two emissions"

let test_dynamic_spawn_validation () =
  let algo = Mvc.Dynamic.create ~relevance:relevance_writes in
  Mvc.Dynamic.spawn algo ~parent:0 ~child:1;
  Alcotest.check_raises "respawn rejected"
    (Invalid_argument "Dynamic.spawn: child thread already exists") (fun () ->
      Mvc.Dynamic.spawn algo ~parent:0 ~child:1)

(* On spawn-free executions, the dynamic algorithm must agree with the
   static one. *)
let prop_dynamic_agrees_with_static =
  QCheck.Test.make ~name:"dynamic = static Algorithm A without spawns" ~count:300
    (arb_steps ~nthreads:3) (fun steps ->
      let exec = build_exec ~nthreads:3 steps in
      let _, static_messages = replay ~relevance:relevance_writes exec in
      let dsteps = List.map (fun (tid, a) -> D_event (tid, a)) steps in
      let _, dynamic_messages = replay_dynamic ~relevance:relevance_writes dsteps in
      List.length static_messages = List.length dynamic_messages
      && List.for_all2
           (fun ((e : Event.t), v) (_, tid, dv) ->
             e.tid = tid && Dvclock.equal (Dvclock.of_vclock v) dv)
           static_messages dynamic_messages)

(* Theorem 3 over dynamic executions with spawn/join edges, against the
   dedicated oracle. *)
let gen_dynamic_steps =
  (* Threads 0 (root), 1 and 2 (spawned by 0 at fixed points), with
     random events around the spawns and a final join. *)
  QCheck.Gen.(
    let event tid = map (fun a -> D_event (tid, a)) gen_action in
    let block tid = list_size (int_range 0 6) (event tid) in
    map3
      (fun pre mid post ->
        List.concat
          [ pre; [ D_spawn (0, 1) ]; mid; [ D_spawn (0, 2) ]; post;
            [ D_join (0, 1) ] ])
      (block 0)
      (oneof [ block 0; block 1 ])
      (oneof [ block 0; block 1; block 2 ]))

let print_dsteps steps =
  String.concat ";"
    (List.map
       (function
         | D_spawn (p, c) -> Printf.sprintf "spawn(%d->%d)" p c
         | D_join (p, c) -> Printf.sprintf "join(%d<-%d)" p c
         | D_event (tid, a) ->
             Printf.sprintf "T%d:%s" tid
               (match a with
               | A_internal -> "i"
               | A_read x -> "r" ^ x
               | A_write (x, v) -> Printf.sprintf "w%s=%d" x v))
       steps)

let prop_dynamic_theorem3 =
  QCheck.Test.make ~name:"Theorem 3 with spawn/join (dynamic oracle)" ~count:300
    (QCheck.make ~print:print_dsteps gen_dynamic_steps) (fun steps ->
      let reach = dynamic_oracle steps in
      let _, emitted = replay_dynamic ~relevance:relevance_writes steps in
      (* For emitted events at step indices i < i': causal precedence per
         the oracle must coincide with the Theorem 3 clock test, and the
         earlier event is never preceded by the later one. *)
      List.for_all
        (fun (i, tid, v) ->
          List.for_all
            (fun (i', _, v') ->
              i >= i' || reach.(i).(i') = (Dvclock.get v tid <= Dvclock.get v' tid))
            emitted)
        emitted)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_requirements_2; prop_requirements_3; prop_theorem3_2; prop_theorem3_3;
      prop_theorem3_4; prop_concurrent_agrees; prop_dynamic_agrees_with_static;
      prop_dynamic_theorem3 ]

let () =
  Alcotest.run "mvc"
    [ ( "relevance",
        [ Alcotest.test_case "policies" `Quick test_relevance_policies ] );
      ( "algorithm",
        [ Alcotest.test_case "paper xyz clocks" `Quick test_paper_xyz_clocks;
          Alcotest.test_case "internal events" `Quick test_internal_events_do_not_move_clocks;
          Alcotest.test_case "write joins access clock" `Quick test_write_joins_access_clock;
          Alcotest.test_case "read keeps write clock" `Quick test_read_does_not_update_write_clock;
          Alcotest.test_case "validation" `Quick test_process_validation ] );
      ( "programs",
        [ Alcotest.test_case "Theorem 3 on synchronized programs" `Quick
            test_theorem3_on_program_executions ] );
      ( "emitter",
        [ Alcotest.test_case "collects exec and messages" `Quick test_emitter_collects;
          Alcotest.test_case "sink" `Quick test_emitter_sink ] );
      ( "dynamic",
        [ Alcotest.test_case "spawn inherits" `Quick test_dynamic_spawn_inherits;
          Alcotest.test_case "siblings concurrent" `Quick
            test_dynamic_spawn_concurrent_siblings;
          Alcotest.test_case "join" `Quick test_dynamic_join;
          Alcotest.test_case "spawn validation" `Quick test_dynamic_spawn_validation ] );
      ("properties", properties) ]
