(* Tests for the observer: channels, computation
   reconstruction and the computation lattice, validated against
   exhaustive schedule exploration. *)

open Trace

(* Run a program under the paper's observed schedule and return its
   messages plus the metadata the observer needs. *)
let observe ?(relevance_vars = None) program script =
  let spec_vars =
    match relevance_vars with
    | Some vars -> vars
    | None -> List.map fst program.Tml.Ast.shared
  in
  let relevance = Mvc.Relevance.writes_of_vars spec_vars in
  let r =
    Tml.Vm.run_program ~relevance ~sched:(Tml.Sched.of_script script) program
  in
  let init = List.filter (fun (x, _) -> List.mem x spec_vars) program.Tml.Ast.shared in
  (List.length program.Tml.Ast.threads, init, r.Tml.Vm.messages)

let landing_obs () = observe Tml.Programs.landing_bounded Tml.Programs.landing_observed
let xyz_obs () = observe Tml.Programs.xyz Tml.Programs.xyz_observed

let comp_of (nthreads, init, messages) =
  Observer.Computation.of_messages_exn ~nthreads ~init messages

(* {1 Channels} *)

let test_channels_permute_but_preserve () =
  let _, _, messages = xyz_obs () in
  (* identity and per-thread channels preserve per-thread order; bounded
     reorder and shuffle only guarantee a permutation. *)
  List.iter
    (fun (name, f) ->
      let delivered = f messages in
      Alcotest.(check int) (name ^ ": same count") (List.length messages)
        (List.length delivered);
      Alcotest.(check bool) (name ^ ": per-thread order kept") true
        (Observer.Channel.is_plausible_delivery ~original:messages delivered))
    [ ("identity", Observer.Channel.identity) ];
  List.iter
    (fun (name, f) ->
      let delivered = f messages in
      let sort = List.sort Message.compare in
      Alcotest.(check bool) (name ^ ": same multiset") true
        (List.equal Message.equal (sort messages) (sort delivered)))
    [ ("bounded w=2", Observer.Channel.bounded_reorder ~seed:7 ~window:2);
      ("bounded w=4", Observer.Channel.bounded_reorder ~seed:9 ~window:4) ]

let test_shuffle_is_permutation () =
  let _, _, messages = xyz_obs () in
  let delivered = Observer.Channel.shuffle ~seed:3 messages in
  Alcotest.(check int) "same count" (List.length messages) (List.length delivered);
  let sort = List.sort Message.compare in
  Alcotest.(check bool) "same multiset" true
    (List.equal Message.equal (sort messages) (sort delivered))

let test_bounded_reorder_window_bound () =
  let _, _, messages = xyz_obs () in
  let delivered = Observer.Channel.bounded_reorder ~seed:1 ~window:2 messages in
  (* No message may overtake more than window-1 = 1 other. *)
  List.iteri
    (fun new_pos m ->
      let old_pos =
        match List.find_index (fun m' -> Message.equal m m') messages with
        | Some i -> i
        | None -> Alcotest.fail "message lost"
      in
      Alcotest.(check bool) "displacement bounded" true (old_pos - new_pos <= 1))
    delivered

(* {1 Computation reconstruction} *)

let test_reconstruction_order_independent () =
  let nthreads, init, messages = xyz_obs () in
  let reference = comp_of (nthreads, init, messages) in
  List.iter
    (fun seed ->
      let delivered = Observer.Channel.shuffle ~seed messages in
      let c = comp_of (nthreads, init, delivered) in
      Alcotest.(check int) (Printf.sprintf "seed %d: same total" seed)
        (Observer.Computation.total reference) (Observer.Computation.total c);
      (* Same per-thread sequences. *)
      for i = 0 to nthreads - 1 do
        let count c =
          List.length
            (List.filter (fun (m : Message.t) -> m.tid = i) (Observer.Computation.messages c))
        in
        Alcotest.(check int) "thread count" (count reference) (count c);
        for k = 1 to count c do
          Alcotest.(check bool) "same message" true
            (Message.equal
               (Observer.Computation.message reference i k)
               (Observer.Computation.message c i k))
        done
      done)
    [ 1; 2; 3; 4; 5 ]

let test_precedes_matches_paper_fig6 () =
  let c = comp_of (xyz_obs ()) in
  let e1 = Observer.Computation.message c 0 1 in
  let e3 = Observer.Computation.message c 0 2 in
  let e2 = Observer.Computation.message c 1 1 in
  let e4 = Observer.Computation.message c 1 2 in
  let prec = Observer.Computation.precedes c in
  Alcotest.(check bool) "e1 before e2" true (prec e1 e2);
  Alcotest.(check bool) "e1 before e3" true (prec e1 e3);
  Alcotest.(check bool) "e1 before e4" true (prec e1 e4);
  Alcotest.(check bool) "e2 before e4" true (prec e2 e4);
  Alcotest.(check bool) "e2 parallel e3" true (Observer.Computation.concurrent c e2 e3);
  Alcotest.(check bool) "e3 parallel e4" true (Observer.Computation.concurrent c e3 e4)

let test_cuts_and_enabled () =
  let c = comp_of (xyz_obs ()) in
  Alcotest.(check bool) "bottom consistent" true
    (Observer.Computation.is_consistent c (Observer.Computation.bottom c));
  Alcotest.(check bool) "top consistent" true
    (Observer.Computation.is_consistent c (Observer.Computation.top c));
  (* Cut (0,1) contains e2 which depends on e1: inconsistent. *)
  Alcotest.(check bool) "(0,1) inconsistent" false
    (Observer.Computation.is_consistent c [| 0; 1 |]);
  Alcotest.(check bool) "(1,1) consistent" true
    (Observer.Computation.is_consistent c [| 1; 1 |]);
  (* At bottom only e1 is enabled. *)
  let enabled = Observer.Computation.enabled c (Observer.Computation.bottom c) in
  Alcotest.(check (list int)) "only thread 0 enabled at bottom" [ 0 ]
    (List.map fst enabled)

let test_state_of_cut () =
  let c = comp_of (xyz_obs ()) in
  let state_at cut = Observer.Computation.state_of_cut c cut in
  Alcotest.(check string) "bottom state" "<-1,0,0>"
    (Format.asprintf "%a" (Pastltl.State.pp_values ~vars:[ "x"; "y"; "z" ]) (state_at [| 0; 0 |]));
  Alcotest.(check string) "top state" "<1,1,1>"
    (Format.asprintf "%a" (Pastltl.State.pp_values ~vars:[ "x"; "y"; "z" ]) (state_at [| 2; 2 |]));
  (* The two writes of x are ordered: the later (x=1) must win at top
     even though messages can arrive in any order. *)
  Alcotest.(check int) "latest write of x wins" 1
    (Pastltl.State.get (state_at [| 2; 2 |]) "x")

(* {1 Lattice} *)

let test_lattice_landing () =
  let lattice = Observer.Lattice.build (comp_of (landing_obs ())) in
  Alcotest.(check int) "6 nodes (Fig. 5)" 6 (Observer.Lattice.node_count lattice);
  Alcotest.(check int) "3 runs" 3 (Observer.Lattice.run_count lattice);
  Alcotest.(check int) "4 levels" 4 (Observer.Lattice.level_count lattice);
  Alcotest.(check int) "max width 2" 2 (Observer.Lattice.max_width lattice)

let test_lattice_xyz () =
  let lattice = Observer.Lattice.build (comp_of (xyz_obs ())) in
  Alcotest.(check int) "7 nodes (Fig. 6)" 7 (Observer.Lattice.node_count lattice);
  Alcotest.(check int) "3 runs" 3 (Observer.Lattice.run_count lattice);
  Alcotest.(check int) "5 levels" 5 (Observer.Lattice.level_count lattice)

let test_lattice_runs_are_linearizations () =
  let c = comp_of (xyz_obs ()) in
  let lattice = Observer.Lattice.build c in
  let runs = Observer.Lattice.runs lattice in
  Alcotest.(check int) "run_count agrees with enumeration"
    (Observer.Lattice.run_count lattice) (List.length runs);
  (* Every run is a permutation of all messages respecting ⊳. *)
  let all = Observer.Computation.messages c in
  List.iter
    (fun run ->
      Alcotest.(check int) "full length" (List.length all) (List.length run);
      let arr = Array.of_list run in
      Array.iteri
        (fun i mi ->
          Array.iteri
            (fun j mj ->
              if i < j && Observer.Computation.precedes c mj mi then
                Alcotest.fail "run violates causality")
            arr)
        arr)
    runs;
  (* And conversely every causality-respecting permutation is a run. *)
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map (fun p -> x :: p) (permutations (List.filter (fun y -> y != x) l)))
          l
  in
  let valid =
    permutations all
    |> List.filter (fun perm ->
           let arr = Array.of_list perm in
           let ok = ref true in
           Array.iteri
             (fun i mi ->
               Array.iteri
                 (fun j mj ->
                   if i < j && Observer.Computation.precedes c mj mi then ok := false)
                 arr)
             arr;
           !ok)
  in
  Alcotest.(check int) "exactly the valid permutations" (List.length valid)
    (List.length runs)

let test_lattice_independent_grid () =
  (* 2 threads, 2 writes each, disjoint variables: the full 3x3 grid. *)
  let program = Tml.Programs.independent ~threads:2 ~writes:2 in
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.round_robin ()) program in
  let c =
    Observer.Computation.of_messages_exn ~nthreads:2 ~init:program.Tml.Ast.shared
      r.Tml.Vm.messages
  in
  let lattice = Observer.Lattice.build c in
  Alcotest.(check int) "9 nodes" 9 (Observer.Lattice.node_count lattice);
  Alcotest.(check int) "C(4,2)=6 runs" 6 (Observer.Lattice.run_count lattice);
  Alcotest.(check int) "max width 3" 3 (Observer.Lattice.max_width lattice)

let test_lattice_matches_explored_interleavings () =
  (* The lattice runs of the observed computation must coincide with the
     distinct relevant-write interleavings over ALL schedules, for a
     program whose writes are schedule-independent. *)
  let program = Tml.Programs.independent ~threads:2 ~writes:2 in
  let explored = Tml.Explore.all_program_runs program in
  let module Sset = Set.Make (String) in
  let projections =
    List.fold_left
      (fun acc (_, (res : Tml.Vm.run_result)) ->
        let key =
          String.concat ";"
            (List.map
               (fun (m : Message.t) -> Printf.sprintf "%s=%d@%d" m.var m.value m.tid)
               res.Tml.Vm.messages)
        in
        Sset.add key acc)
      Sset.empty explored.Tml.Explore.runs
  in
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.round_robin ()) program in
  let c =
    Observer.Computation.of_messages_exn ~nthreads:2 ~init:program.Tml.Ast.shared
      r.Tml.Vm.messages
  in
  let lattice = Observer.Lattice.build c in
  let run_keys =
    List.map
      (fun run ->
        String.concat ";"
          (List.map
             (fun (m : Message.t) -> Printf.sprintf "%s=%d@%d" m.var m.value m.tid)
             run))
      (Observer.Lattice.runs lattice)
  in
  Alcotest.(check int) "distinct schedules = lattice runs" (Sset.cardinal projections)
    (List.length (List.sort_uniq compare run_keys))

let test_lattice_too_large () =
  let program = Tml.Programs.independent ~threads:3 ~writes:3 in
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.round_robin ()) program in
  let c =
    Observer.Computation.of_messages_exn ~nthreads:3 ~init:program.Tml.Ast.shared
      r.Tml.Vm.messages
  in
  match Observer.Lattice.build ~max_nodes:10 c with
  | exception Observer.Lattice.Too_large 10 -> ()
  | _ -> Alcotest.fail "expected Too_large"

let test_states_of_run () =
  let c = comp_of (xyz_obs ()) in
  let lattice = Observer.Lattice.build c in
  List.iter
    (fun run ->
      let states = Observer.Lattice.states_of_run lattice run in
      Alcotest.(check int) "length" (List.length run + 1) (List.length states);
      let final = List.nth states (List.length states - 1) in
      Alcotest.(check bool) "all runs end at the top state" true
        (Pastltl.State.equal final
           (Observer.Computation.state_of_cut c (Observer.Computation.top c))))
    (Observer.Lattice.runs lattice)

let test_lattice_counts_closed_form () =
  (* For t independent threads with w writes each, the lattice is the
     (w+1)^t grid and the runs are the multinomial (t*w)! / (w!)^t. *)
  let factorial n =
    let rec go acc k = if k <= 1 then acc else go (acc * k) (k - 1) in
    go 1 n
  in
  List.iter
    (fun (threads, writes) ->
      let program = Tml.Programs.independent ~threads ~writes in
      let r = Tml.Vm.run_program ~sched:(Tml.Sched.round_robin ()) program in
      let c =
        Observer.Computation.of_messages_exn ~nthreads:threads
          ~init:program.Tml.Ast.shared r.Tml.Vm.messages
      in
      let lattice = Observer.Lattice.build c in
      let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
      Alcotest.(check int)
        (Printf.sprintf "%dx%d nodes" threads writes)
        (pow (writes + 1) threads)
        (Observer.Lattice.node_count lattice);
      Alcotest.(check int)
        (Printf.sprintf "%dx%d runs" threads writes)
        (factorial (threads * writes) / pow (factorial writes) threads)
        (Observer.Lattice.run_count lattice))
    [ (2, 1); (2, 3); (2, 5); (3, 2); (3, 3); (4, 2) ]

let test_lattice_counts_pre_refactor () =
  (* Node/edge counts of the paper's Fig. 5/6 examples, pinned to the
     values measured before the frontier-engine refactor. *)
  let check_counts name comp nodes edges levels width runs =
    let l = Observer.Lattice.build comp in
    Alcotest.(check int) (name ^ " nodes") nodes (Observer.Lattice.node_count l);
    Alcotest.(check int) (name ^ " edges") edges (Observer.Lattice.edge_count l);
    Alcotest.(check int) (name ^ " levels") levels (Observer.Lattice.level_count l);
    Alcotest.(check int) (name ^ " width") width (Observer.Lattice.max_width l);
    Alcotest.(check int) (name ^ " runs") runs (Observer.Lattice.run_count l)
  in
  check_counts "landing (Fig. 5)" (comp_of (landing_obs ())) 6 7 4 2 3;
  check_counts "xyz (Fig. 6)" (comp_of (xyz_obs ())) 7 8 5 2 3;
  let program = Tml.Programs.independent ~threads:3 ~writes:2 in
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.round_robin ()) program in
  let c =
    Observer.Computation.of_messages_exn ~nthreads:3 ~init:program.Tml.Ast.shared
      r.Tml.Vm.messages
  in
  check_counts "3x2 grid" c 27 54 7 7 90

let test_run_count_saturates () =
  (* An independent 2x40 grid has only 41*41 nodes but C(80,40) ≈
     1.08e23 bottom-to-top paths — far past max_int. The DP must clamp
     instead of silently wrapping. *)
  let program = Tml.Programs.independent ~threads:2 ~writes:40 in
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.round_robin ()) program in
  let c =
    Observer.Computation.of_messages_exn ~nthreads:2 ~init:program.Tml.Ast.shared
      r.Tml.Vm.messages
  in
  let lattice = Observer.Lattice.build c in
  Alcotest.(check int) "1681 nodes" 1681 (Observer.Lattice.node_count lattice);
  let n, saturated = Observer.Lattice.run_count_info lattice in
  Alcotest.(check int) "clamped at max_int" max_int n;
  Alcotest.(check bool) "reported as saturated" true saturated;
  Alcotest.(check bool) "run_count_saturated agrees" true
    (Observer.Lattice.run_count_saturated lattice);
  (* A small lattice stays exact. *)
  let small = Observer.Lattice.build (comp_of (landing_obs ())) in
  Alcotest.(check bool) "small lattice not saturated" false
    (Observer.Lattice.run_count_saturated small);
  Alcotest.(check int) "small lattice exact" 3 (Observer.Lattice.run_count small)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let test_lattice_to_dot () =
  let lattice = Observer.Lattice.build (comp_of (landing_obs ())) in
  let dot =
    Observer.Lattice.to_dot
      ~highlight:(fun n -> n.Observer.Lattice.level = 3)
      lattice
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (contains ~needle dot))
    [ "digraph lattice"; "approved=1"; "radio=0"; "fillcolor"; "<0,0,1>" ];
  (* 6 node declarations, 7 edges. *)
  let count needle =
    let rec go i acc =
      if i >= String.length dot then acc
      else if contains ~needle (String.sub dot i (min (String.length needle) (String.length dot - i)))
      then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one highlighted node" 1 (count "fillcolor")

let () =
  Alcotest.run "observer"
    [ ( "channel",
        [ Alcotest.test_case "permute but preserve" `Quick test_channels_permute_but_preserve;
          Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "bounded window" `Quick test_bounded_reorder_window_bound ] );
      ( "computation",
        [ Alcotest.test_case "order independent" `Quick test_reconstruction_order_independent;
          Alcotest.test_case "Fig. 6 causality" `Quick test_precedes_matches_paper_fig6;
          Alcotest.test_case "cuts and enabled" `Quick test_cuts_and_enabled;
          Alcotest.test_case "state of cut" `Quick test_state_of_cut ] );
      ( "lattice",
        [ Alcotest.test_case "landing (Fig. 5)" `Quick test_lattice_landing;
          Alcotest.test_case "xyz (Fig. 6)" `Quick test_lattice_xyz;
          Alcotest.test_case "runs are exactly the linearizations" `Quick
            test_lattice_runs_are_linearizations;
          Alcotest.test_case "independent grid" `Quick test_lattice_independent_grid;
          Alcotest.test_case "explored interleavings" `Quick
            test_lattice_matches_explored_interleavings;
          Alcotest.test_case "too large" `Quick test_lattice_too_large;
          Alcotest.test_case "states of run" `Quick test_states_of_run;
          Alcotest.test_case "graphviz export" `Quick test_lattice_to_dot;
          Alcotest.test_case "closed-form counts" `Quick test_lattice_counts_closed_form;
          Alcotest.test_case "pre-refactor node/edge counts" `Quick
            test_lattice_counts_pre_refactor;
          Alcotest.test_case "run_count saturates" `Quick test_run_count_saturates ] ) ]
