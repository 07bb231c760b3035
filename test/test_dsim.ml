(* Tests for the distributed-systems interpretation (paper, Section 3.2):
   the process-network simulation must reproduce Algorithm A exactly on
   arbitrary executions, with exactly one hidden message per read. *)

open Trace

type action = A_internal | A_read of string | A_write of string * int

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

let gen_steps ~nthreads =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (pair (int_bound (nthreads - 1))
         (frequency
            [ (1, return A_internal);
              (3, map (fun x -> A_read x) (oneofl [ "x"; "y"; "z" ]));
              (4, map2 (fun x v -> A_write (x, v)) (oneofl [ "x"; "y"; "z" ]) (int_bound 9)) ])))

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

let relevance = Mvc.Relevance.writes_of_vars [ "x"; "y"; "z" ]

(* {1 Units} *)

let test_write_protocol () =
  (* One write: i -> x^a -> x^w -> ack = 3 packets, none hidden. *)
  let exec = build_exec ~nthreads:2 [ (0, A_write ("x", 1)) ] in
  let stats = Dsim.Simulate.run ~relevance exec in
  Alcotest.(check int) "3 packets" 3 stats.Dsim.Simulate.packets;
  Alcotest.(check int) "no hidden" 0 stats.Dsim.Simulate.hidden;
  Alcotest.(check int) "one emission" 1 (List.length stats.Dsim.Simulate.emitted);
  let _, vc = List.hd stats.Dsim.Simulate.emitted in
  Alcotest.(check (list int)) "clock (1,0)" [ 1; 0 ] (Vclock.to_list vc)

let test_read_protocol_hidden () =
  let exec = build_exec ~nthreads:2 [ (0, A_write ("x", 1)); (1, A_read "x") ] in
  let stats = Dsim.Simulate.run ~relevance exec in
  Alcotest.(check int) "3 + 3 packets" 6 stats.Dsim.Simulate.packets;
  Alcotest.(check int) "exactly one hidden (the read)" 1 stats.Dsim.Simulate.hidden

let test_internal_no_packets () =
  let exec = build_exec ~nthreads:2 [ (0, A_internal); (1, A_internal) ] in
  let stats = Dsim.Simulate.run ~relevance exec in
  Alcotest.(check int) "no packets" 0 stats.Dsim.Simulate.packets

let test_read_acquires_writer_knowledge () =
  (* T0 writes x; T1 reads x then writes y: y's clock must include T0's
     write — the ack from x^w carries it. *)
  let exec =
    build_exec ~nthreads:2 [ (0, A_write ("x", 1)); (1, A_read "x"); (1, A_write ("y", 2)) ]
  in
  let stats = Dsim.Simulate.run ~relevance exec in
  let _, vc = List.nth stats.Dsim.Simulate.emitted 1 in
  Alcotest.(check (list int)) "y's clock is (1,1)" [ 1; 1 ] (Vclock.to_list vc)

let test_reads_do_not_worry_writer () =
  (* Two concurrent reads then a write by another thread: the writes of
     distinct readers must not be ordered through x^w. *)
  let exec =
    build_exec ~nthreads:3
      [ (0, A_read "x"); (1, A_read "x"); (0, A_write ("y", 1)); (1, A_write ("z", 1)) ]
  in
  let stats = Dsim.Simulate.run ~relevance exec in
  let (_, vy), (_, vz) =
    match stats.Dsim.Simulate.emitted with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "expected two emissions"
  in
  Alcotest.(check bool) "emitted writes concurrent" true (Vclock.concurrent vy vz)

let test_process_bump_validation () =
  let p = Dsim.Process.create (Dsim.Process.Access "x") ~dim:2 in
  Alcotest.check_raises "bump non-thread"
    (Invalid_argument "Process.bump: only a thread bumps its own component") (fun () ->
      Dsim.Process.bump p 0)

(* {1 Equivalence with Algorithm A} *)

let check_equiv ~relevance nthreads steps =
  let exec = build_exec ~nthreads steps in
  match Dsim.Simulate.compare_with_algorithm ~relevance exec with
  | Ok stats ->
      (* One hidden message per read, three packets per access. *)
      let reads =
        Array.to_list (Exec.events exec) |> List.filter Event.is_read |> List.length
      in
      let accesses =
        Array.to_list (Exec.events exec) |> List.filter (fun e -> Event.is_read e || Event.is_write e) |> List.length
      in
      stats.Dsim.Simulate.hidden = reads && stats.Dsim.Simulate.packets = 3 * accesses
  | Error d ->
      QCheck.Test.fail_reportf "diverged at e%d on %s: network %s, algorithm %s"
        d.Dsim.Simulate.eid d.Dsim.Simulate.where
        (Vclock.to_string d.Dsim.Simulate.network)
        (Vclock.to_string d.Dsim.Simulate.algorithm)

let prop_equiv_writes_relevance =
  QCheck.Test.make ~name:"network = Algorithm A (writes relevant)" ~count:400
    (QCheck.make ~print:print_steps (gen_steps ~nthreads:3))
    (fun steps -> check_equiv ~relevance 3 steps)

let prop_equiv_all_accesses =
  QCheck.Test.make ~name:"network = Algorithm A (all accesses relevant)" ~count:400
    (QCheck.make ~print:print_steps (gen_steps ~nthreads:2))
    (fun steps ->
      check_equiv
        ~relevance:
          (Mvc.Relevance.custom (function
            | Trace.Event.Read (x, _) | Trace.Event.Write (x, _) -> Trace.Types.is_data_var x
            | Trace.Event.Internal -> false))
        2 steps)

let prop_equiv_nothing_relevant =
  QCheck.Test.make ~name:"network = Algorithm A (nothing relevant)" ~count:200
    (QCheck.make ~print:print_steps (gen_steps ~nthreads:2))
    (fun steps -> check_equiv ~relevance:Mvc.Relevance.nothing 2 steps)

(* {1 On real program executions} *)

let test_equiv_on_programs () =
  List.iter
    (fun (name, program) ->
      let r = Tml.Vm.run_program ~fuel:2_000 ~sched:(Tml.Sched.random ~seed:5) program in
      match r.Tml.Vm.exec with
      | None -> Alcotest.failf "%s: no exec" name
      | Some exec -> (
          match Dsim.Simulate.compare_with_algorithm ~relevance:Mvc.Relevance.all_writes exec with
          | Ok _ -> ()
          | Error d ->
              Alcotest.failf "%s diverged at e%d on %s" name d.Dsim.Simulate.eid
                d.Dsim.Simulate.where))
    [ ("landing", Tml.Programs.landing_bounded);
      ("xyz", Tml.Programs.xyz);
      ("racy", Tml.Programs.racy_counter ~increments:3);
      ("locked", Tml.Programs.locked_counter ~increments:3);
      ("peterson", Tml.Programs.peterson);
      ("producer-consumer", Tml.Programs.producer_consumer ~items:2) ]

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_equiv_writes_relevance; prop_equiv_all_accesses; prop_equiv_nothing_relevant ]

let () =
  Alcotest.run "dsim"
    [ ( "protocols",
        [ Alcotest.test_case "write protocol" `Quick test_write_protocol;
          Alcotest.test_case "read hidden message" `Quick test_read_protocol_hidden;
          Alcotest.test_case "internal" `Quick test_internal_no_packets;
          Alcotest.test_case "read acquires knowledge" `Quick
            test_read_acquires_writer_knowledge;
          Alcotest.test_case "reads stay permutable" `Quick test_reads_do_not_worry_writer;
          Alcotest.test_case "bump validation" `Quick test_process_bump_validation ] );
      ( "equivalence",
        [ Alcotest.test_case "on program executions" `Quick test_equiv_on_programs ] );
      ("properties", properties) ]
