(* Tests for the trace library: event and execution bookkeeping, and the
   brute-force causality oracle. *)

open Trace

(* {1 Helpers} *)

(* A small random-execution generator shared (by copy) with test_mvc: a
   list of (tid, action) where action encodes internal/read/write over a
   tiny variable pool. *)
type action = A_internal | A_read of string | A_write of string * int

let build_exec ~nthreads steps =
  let b = Exec.builder ~nthreads ~init:[ ("x", 0); ("y", 0); ("z", 0) ] in
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
        (3, map (fun x -> A_read x) (oneofl [ "x"; "y"; "z" ]));
        (4, map2 (fun x v -> A_write (x, v)) (oneofl [ "x"; "y"; "z" ]) (int_bound 9)) ])

let gen_steps ~nthreads =
  QCheck.Gen.(list_size (int_range 0 25) (pair (int_bound (nthreads - 1)) gen_action))

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

(* {1 Types} *)

let test_sync_vars () =
  Alcotest.(check bool) "lock var is sync" true (Types.is_sync_var (Types.lock_var "m"));
  Alcotest.(check bool) "notify var is sync" true
    (Types.is_sync_var (Types.notify_var "c"));
  Alcotest.(check bool) "plain var is data" true (Types.is_data_var "x");
  Alcotest.(check bool) "lock var is not data" false
    (Types.is_data_var (Types.lock_var "m"));
  Alcotest.(check bool) "distinct namespaces" true
    (Types.lock_var "m" <> Types.notify_var "m")

(* {1 Event} *)

let test_event_accessors () =
  let r = Event.read ~eid:0 ~tid:1 ~pos:1 ~var:"x" ~value:7 in
  let w = Event.write ~eid:1 ~tid:0 ~pos:1 ~var:"x" ~value:3 in
  let n = Event.internal ~eid:2 ~tid:1 ~pos:2 in
  Alcotest.(check bool) "read is_read" true (Event.is_read r);
  Alcotest.(check bool) "read not write" false (Event.is_write r);
  Alcotest.(check bool) "write is_write" true (Event.is_write w);
  Alcotest.(check bool) "internal not read" false (Event.is_read n);
  Alcotest.(check bool) "internal not write" false (Event.is_write n);
  Alcotest.(check (option string)) "variable of read" (Some "x") (Event.variable r);
  Alcotest.(check (option string)) "variable of internal" None (Event.variable n);
  Alcotest.(check bool) "accesses x" true (Event.accesses r "x");
  Alcotest.(check bool) "does not access y" false (Event.accesses r "y");
  Alcotest.(check bool) "writes x" true (Event.writes w "x");
  Alcotest.(check bool) "read does not write x" false (Event.writes r "x")

(* {1 Exec} *)

let test_builder_positions () =
  let b = Exec.builder ~nthreads:2 ~init:[ ("x", 5) ] in
  let e1 = Exec.add_write b 0 "x" 1 in
  let e2 = Exec.add_read b 1 "x" 1 in
  let e3 = Exec.add_write b 0 "y" 2 in
  let m = Exec.freeze b in
  Alcotest.(check int) "eids sequential" 0 e1.Event.eid;
  Alcotest.(check int) "eid 1" 1 e2.Event.eid;
  Alcotest.(check int) "eid 2" 2 e3.Event.eid;
  Alcotest.(check int) "thread 0 positions" 1 e1.Event.pos;
  Alcotest.(check int) "second event of thread 0" 2 e3.Event.pos;
  Alcotest.(check int) "thread 1 position" 1 e2.Event.pos;
  Alcotest.(check int) "length" 3 (Exec.length m);
  Alcotest.(check int) "nthreads" 2 (Exec.nthreads m);
  Alcotest.(check (list (pair string int))) "init" [ ("x", 5) ] (Exec.init m)

let test_builder_validation () =
  Alcotest.check_raises "nthreads 0" (Invalid_argument "Exec.builder: nthreads must be positive")
    (fun () -> ignore (Exec.builder ~nthreads:0 ~init:[]));
  let b = Exec.builder ~nthreads:1 ~init:[] in
  Alcotest.check_raises "bad tid" (Invalid_argument "Exec: thread id out of range")
    (fun () -> ignore (Exec.add_internal b 1))

let test_variables () =
  let b = Exec.builder ~nthreads:1 ~init:[ ("a", 0) ] in
  ignore (Exec.add_write b 0 "c" 1);
  ignore (Exec.add_read b 0 "b" 0);
  let m = Exec.freeze b in
  Alcotest.(check (list string)) "vars sorted, init included" [ "a"; "b"; "c" ]
    (Exec.variables m)

let test_thread_events () =
  let b = Exec.builder ~nthreads:2 ~init:[] in
  ignore (Exec.add_internal b 0);
  ignore (Exec.add_internal b 1);
  ignore (Exec.add_internal b 0);
  let m = Exec.freeze b in
  let positions tid =
    Array.to_list (Exec.events m)
    |> List.filter_map (fun (e : Event.t) -> if e.tid = tid then Some e.pos else None)
  in
  Alcotest.(check (list int)) "thread 0 has 2" [ 1; 2 ] (positions 0);
  Alcotest.(check (list int)) "thread 1 has 1" [ 1 ] (positions 1)

(* {1 Causality: unit} *)

let test_program_order () =
  let m = build_exec ~nthreads:2 [ (0, A_internal); (0, A_internal); (1, A_internal) ] in
  let c = Causality.compute m in
  Alcotest.(check bool) "e0 < e1 same thread" true (Causality.precedes c 0 1);
  Alcotest.(check bool) "no back edge" false (Causality.precedes c 1 0);
  Alcotest.(check bool) "internals of different threads concurrent" true
    (Causality.concurrent c 0 2)

let test_conflict_edges () =
  (* T0: write x | T1: read x | T1: read y | T0: read y *)
  let m =
    build_exec ~nthreads:2
      [ (0, A_write ("x", 1)); (1, A_read "x"); (1, A_read "y"); (0, A_read "y") ]
  in
  let c = Causality.compute m in
  Alcotest.(check bool) "write-read edge" true (Causality.precedes c 0 1);
  Alcotest.(check bool) "read-read not ordered across threads" true
    (Causality.concurrent c 2 3)

let test_transitivity_via_variable () =
  (* T0 writes x; T1 reads x then writes y; T2 reads y: T0 ≺ T2. *)
  let m =
    build_exec ~nthreads:3
      [ (0, A_write ("x", 1)); (1, A_read "x"); (1, A_write ("y", 2)); (2, A_read "y") ]
  in
  let c = Causality.compute m in
  Alcotest.(check bool) "chain through two variables" true (Causality.precedes c 0 3)

let test_predecessors () =
  let m =
    build_exec ~nthreads:2 [ (0, A_write ("x", 1)); (1, A_read "x"); (1, A_internal) ]
  in
  let c = Causality.compute m in
  Alcotest.(check (list int)) "predecessors of the last event" [ 0; 1 ]
    (Causality.predecessors c 2);
  Alcotest.(check (list int)) "first event has none" [] (Causality.predecessors c 0)

let test_downset_count () =
  let m =
    build_exec ~nthreads:2
      [ (0, A_write ("x", 1)); (0, A_write ("x", 2)); (1, A_read "x"); (1, A_write ("y", 3)) ]
  in
  let c = Causality.compute m in
  let relevant = Event.is_write in
  Alcotest.(check int) "writes of T0 up to e1" 2
    (Causality.downset_count c ~relevant 1 0);
  Alcotest.(check int) "T0 writes preceding T1's read" 2
    (Causality.downset_count c ~relevant 2 0);
  Alcotest.(check int) "T1 write counts itself" 1
    (Causality.downset_count c ~relevant 3 1)

(* {1 Causality: properties} *)

let prop_partial_order =
  QCheck.Test.make ~name:"closure is a strict partial order" ~count:200
    (arb_steps ~nthreads:3) (fun steps ->
      let c = Causality.compute (build_exec ~nthreads:3 steps) in
      Causality.check_partial_order c)

let prop_program_order_included =
  QCheck.Test.make ~name:"program order is included" ~count:200 (arb_steps ~nthreads:3)
    (fun steps ->
      let m = build_exec ~nthreads:3 steps in
      let c = Causality.compute m in
      let evs = Exec.events m in
      let ok = ref true in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if i < j && a.Event.tid = b.Event.tid && not (Causality.precedes c i j) then
                ok := false)
            evs)
        evs;
      !ok)

let prop_conflicts_included =
  QCheck.Test.make ~name:"variable conflicts are included" ~count:200
    (arb_steps ~nthreads:3) (fun steps ->
      let m = build_exec ~nthreads:3 steps in
      let c = Causality.compute m in
      let evs = Exec.events m in
      let ok = ref true in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if
                i < j
                && (match (Event.variable a, Event.variable b) with
                   | Some x, Some y -> x = y && (Event.is_write a || Event.is_write b)
                   | _ -> false)
                && not (Causality.precedes c i j)
              then ok := false)
            evs)
        evs;
      !ok)

let prop_precedes_respects_observed_order =
  QCheck.Test.make ~name:"causality implies observed order" ~count:200
    (arb_steps ~nthreads:3) (fun steps ->
      let m = build_exec ~nthreads:3 steps in
      let c = Causality.compute m in
      let r = Exec.length m in
      let ok = ref true in
      for i = 0 to r - 1 do
        for j = 0 to i do
          if Causality.precedes c i j then ok := false
        done
      done;
      !ok)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_partial_order; prop_program_order_included; prop_conflicts_included;
      prop_precedes_respects_observed_order ]

let () =
  Alcotest.run "trace"
    [ ( "types",
        [ Alcotest.test_case "sync/data namespaces" `Quick test_sync_vars ] );
      ( "event",
        [ Alcotest.test_case "accessors" `Quick test_event_accessors ] );
      ( "exec",
        [ Alcotest.test_case "builder positions" `Quick test_builder_positions;
          Alcotest.test_case "builder validation" `Quick test_builder_validation;
          Alcotest.test_case "variables" `Quick test_variables;
          Alcotest.test_case "thread events" `Quick test_thread_events ] );
      ( "causality",
        [ Alcotest.test_case "program order" `Quick test_program_order;
          Alcotest.test_case "conflict edges" `Quick test_conflict_edges;
          Alcotest.test_case "transitivity" `Quick test_transitivity_via_variable;
          Alcotest.test_case "predecessors" `Quick test_predecessors;
          Alcotest.test_case "downset count" `Quick test_downset_count ] );
      ("properties", properties) ]
