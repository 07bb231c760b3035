(* Tests for the past-time LTL library: predicates, direct semantics,
   synthesized monitors (differential against the semantics), and the
   formula parser. *)

open Pastltl

let st l = State.of_list l

(* {1 State} *)

let test_state_basics () =
  let s = st [ ("x", 1); ("y", -2) ] in
  Alcotest.(check int) "get x" 1 (State.get s "x");
  Alcotest.(check int) "missing reads 0" 0 (State.get s "q");
  let s' = State.set s "x" 5 in
  Alcotest.(check int) "set" 5 (State.get s' "x");
  Alcotest.(check int) "persistent" 1 (State.get s "x");
  Alcotest.(check bool) "equal" true (State.equal s (st [ ("y", -2); ("x", 1) ]));
  Alcotest.(check string) "pp_values order" "<1,-2>"
    (Format.asprintf "%a" (State.pp_values ~vars:[ "x"; "y" ]) s)

(* {1 Predicates} *)

let test_predicates () =
  let open Predicate in
  let p = make Gt (Add (Var "x", Const 1)) (Mul (Var "y", Const 2)) in
  Alcotest.(check bool) "x+1 > 2y at (2,1)" true (holds p (st [ ("x", 2); ("y", 1) ]));
  Alcotest.(check bool) "x+1 > 2y at (1,1)" false (holds p (st [ ("x", 1); ("y", 1) ]));
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] (vars p);
  Alcotest.(check bool) "eval neg" true
    (holds (make Eq (Neg (Var "x")) (Const (-3))) (st [ ("x", 3) ]));
  Alcotest.(check bool) "eval sub" true
    (holds (make Eq (Sub (Var "x", Const 2)) (Const 1)) (st [ ("x", 3) ]))

(* {1 Formula helpers} *)

let test_formula_vars_and_size () =
  Alcotest.(check (list string)) "landing spec vars" [ "approved"; "landing"; "radio" ]
    (Formula.vars Formula.landing_spec);
  Alcotest.(check (list string)) "xyz spec vars" [ "x"; "y"; "z" ]
    (Formula.vars Formula.xyz_spec);
  Alcotest.(check bool) "size positive" true (Formula.size Formula.xyz_spec > 3);
  let subs = Formula.subformulas Formula.xyz_spec in
  Alcotest.(check bool) "formula itself last" true
    (Formula.equal (List.nth subs (List.length subs - 1)) Formula.xyz_spec)

(* {1 Direct semantics: units} *)

let atom x n = Formula.cmp Predicate.Eq (Predicate.Var x) (Predicate.Const n)

let trace_of_lists ls = Array.of_list (List.map st ls)

let eval_last f ls =
  let tr = trace_of_lists ls in
  (Semantics.eval f tr).(Array.length tr - 1)

let test_semantics_prev () =
  let f = Formula.Prev (atom "x" 1) in
  Alcotest.(check bool) "prev at init = now" true (eval_last f [ [ ("x", 1) ] ]);
  Alcotest.(check bool) "prev looks back" true
    (eval_last f [ [ ("x", 1) ]; [ ("x", 0) ] ]);
  Alcotest.(check bool) "prev false" false
    (eval_last f [ [ ("x", 0) ]; [ ("x", 1) ] ])

let test_semantics_once_historically () =
  let once = Formula.Once (atom "x" 1) in
  Alcotest.(check bool) "once true if ever" true
    (eval_last once [ [ ("x", 1) ]; [ ("x", 0) ]; [ ("x", 0) ] ]);
  Alcotest.(check bool) "once false if never" false
    (eval_last once [ [ ("x", 0) ]; [ ("x", 0) ] ]);
  let hist = Formula.Historically (atom "x" 1) in
  Alcotest.(check bool) "historically all" true
    (eval_last hist [ [ ("x", 1) ]; [ ("x", 1) ] ]);
  Alcotest.(check bool) "historically broken" false
    (eval_last hist [ [ ("x", 1) ]; [ ("x", 0) ]; [ ("x", 1) ] ])

let test_semantics_since () =
  let f = Formula.Since (atom "x" 1, atom "y" 1) in
  (* y held at some point, x since then. *)
  Alcotest.(check bool) "since holds" true
    (eval_last f [ [ ("y", 1); ("x", 0) ]; [ ("x", 1) ]; [ ("x", 1) ] ]);
  Alcotest.(check bool) "since broken by x gap" false
    (eval_last f [ [ ("y", 1); ("x", 0) ]; [ ("x", 0) ]; [ ("x", 1) ] ]);
  Alcotest.(check bool) "g now is enough" true
    (eval_last f [ [ ("x", 0) ]; [ ("y", 1); ("x", 0) ] ])

let test_semantics_interval () =
  let f = Formula.Interval (atom "p" 1, atom "q" 1) in
  Alcotest.(check bool) "p seen, no q since" true
    (eval_last f [ [ ("p", 1) ]; [] ]);
  Alcotest.(check bool) "q kills the interval" false
    (eval_last f [ [ ("p", 1) ]; [ ("q", 1) ]; [] ]);
  Alcotest.(check bool) "p after q revives" true
    (eval_last f [ [ ("p", 1) ]; [ ("q", 1) ]; [ ("p", 1); ("q", 0) ] ]);
  Alcotest.(check bool) "q now kills even with p now" false
    (eval_last f [ [ ("p", 1); ("q", 1) ] ]);
  Alcotest.(check bool) "nothing seen" false (eval_last f [ [] ])

let test_semantics_start_end () =
  let s = Formula.Start (atom "x" 1) in
  Alcotest.(check bool) "start false initially" false (eval_last s [ [ ("x", 1) ] ]);
  Alcotest.(check bool) "start on rising edge" true
    (eval_last s [ [ ("x", 0) ]; [ ("x", 1) ] ]);
  Alcotest.(check bool) "no start when already true" false
    (eval_last s [ [ ("x", 1) ]; [ ("x", 1) ] ]);
  let e = Formula.End (atom "x" 1) in
  Alcotest.(check bool) "end on falling edge" true
    (eval_last e [ [ ("x", 1) ]; [ ("x", 0) ] ]);
  Alcotest.(check bool) "end needs previous truth" false
    (eval_last e [ [ ("x", 0) ]; [ ("x", 0) ] ])

let test_first_violation () =
  let f = Formula.Historically (atom "x" 0) in
  Alcotest.(check (option int)) "violation located" (Some 2)
    (Semantics.first_violation f [ st []; st []; st [ ("x", 1) ]; st [] ]);
  Alcotest.(check (option int)) "no violation" None
    (Semantics.first_violation f [ st []; st [] ]);
  Alcotest.(check (option int)) "empty trace" None (Semantics.first_violation f [])

(* {1 Paper examples semantics} *)

let landing_states values =
  List.map (fun (l, a, r) -> st [ ("landing", l); ("approved", a); ("radio", r) ]) values

let test_landing_spec_runs () =
  let ok_run = landing_states [ (0, 0, 1); (0, 1, 1); (1, 1, 1); (1, 1, 0) ] in
  Alcotest.(check (option int)) "observed run satisfies" None
    (Semantics.first_violation Formula.landing_spec ok_run);
  let bad_inner = landing_states [ (0, 0, 1); (0, 1, 1); (0, 1, 0); (1, 1, 0) ] in
  Alcotest.(check (option int)) "radio off between approval and landing" (Some 3)
    (Semantics.first_violation Formula.landing_spec bad_inner);
  let bad_right = landing_states [ (0, 0, 1); (0, 0, 0); (0, 1, 0); (1, 1, 0) ] in
  Alcotest.(check (option int)) "radio off before approval" (Some 3)
    (Semantics.first_violation Formula.landing_spec bad_right)

let xyz_states values =
  List.map (fun (x, y, z) -> st [ ("x", x); ("y", y); ("z", z) ]) values

let test_xyz_spec_runs () =
  let observed = xyz_states [ (-1, 0, 0); (0, 0, 0); (0, 0, 1); (1, 0, 1); (1, 1, 1) ] in
  Alcotest.(check (option int)) "observed run satisfies" None
    (Semantics.first_violation Formula.xyz_spec observed);
  let violating = xyz_states [ (-1, 0, 0); (0, 0, 0); (0, 1, 0); (0, 1, 1); (1, 1, 1) ] in
  Alcotest.(check (option int)) "rightmost run violates" (Some 4)
    (Semantics.first_violation Formula.xyz_spec violating)

(* {1 Monitor vs semantics differential} *)

let gen_formula_sized =
  QCheck.Gen.(
    fix (fun self size ->
      let pred =
        map2
          (fun x n -> atom x n)
          (oneofl [ "x"; "y" ])
          (int_bound 2)
      in
      if size <= 1 then oneof [ return Formula.True; return Formula.False; pred ]
      else
        frequency
          [ (2, pred);
            (1, map (fun f -> Formula.Not f) (self (size / 2)));
            (1, map2 (fun f g -> Formula.And (f, g)) (self (size / 2)) (self (size / 2)));
            (1, map2 (fun f g -> Formula.Or (f, g)) (self (size / 2)) (self (size / 2)));
            (1, map2 (fun f g -> Formula.Implies (f, g)) (self (size / 2)) (self (size / 2)));
            (1, map (fun f -> Formula.Prev f) (self (size / 2)));
            (1, map (fun f -> Formula.Once f) (self (size / 2)));
            (1, map (fun f -> Formula.Historically f) (self (size / 2)));
            (1, map2 (fun f g -> Formula.Since (f, g)) (self (size / 2)) (self (size / 2)));
            (1, map2 (fun f g -> Formula.Interval (f, g)) (self (size / 2)) (self (size / 2)));
            (1, map (fun f -> Formula.Start f) (self (size / 2)));
            (1, map (fun f -> Formula.End f) (self (size / 2))) ]))

let gen_formula = QCheck.Gen.sized gen_formula_sized

(* FSM synthesis enumerates reachable monitor states, exponential in the
   worst case; keep its inputs small. *)
let gen_small_formula = QCheck.Gen.(sized_size (int_range 0 8) gen_formula_sized)

let gen_trace =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (map2 (fun x y -> st [ ("x", x); ("y", y) ]) (int_bound 2) (int_bound 2)))

let arb_formula_trace =
  QCheck.make
    ~print:(fun (f, tr) ->
      Format.asprintf "%a over %a" Formula.pp f
        (Format.pp_print_list State.pp)
        tr)
    QCheck.Gen.(pair gen_formula gen_trace)

let prop_monitor_equals_semantics =
  QCheck.Test.make ~name:"synthesized monitor = direct semantics" ~count:1000
    arb_formula_trace (fun (f, tr) ->
      let compiled = Monitor.compile f in
      let expected = Semantics.eval f (Array.of_list tr) in
      let rec drive i mstate = function
        | [] -> true
        | s :: rest ->
            let mstate =
              match mstate with
              | None -> Monitor.init compiled s
              | Some m -> Monitor.step compiled m s
            in
            Monitor.verdict compiled mstate = expected.(i) && drive (i + 1) (Some mstate) rest
      in
      drive 0 None tr)

let prop_monitor_state_determinism =
  QCheck.Test.make ~name:"monitor state is a function of the trace" ~count:300
    arb_formula_trace (fun (f, tr) ->
      let compiled = Monitor.compile f in
      let run () =
        List.fold_left
          (fun m s ->
            match m with
            | None -> Some (Monitor.init compiled s)
            | Some m -> Some (Monitor.step compiled m s))
          None tr
      in
      match (run (), run ()) with
      | Some a, Some b -> a = b && Monitor.compare_state a b = 0
      | None, None -> tr = []
      | _ -> false)

(* {1 Compiled monitor vs the assoc-list evaluator}

   [Reference] is the monitor as it was before [Monitor.compile]
   resolved children to slot indices: it finds every child's slot with
   [List.assoc_opt] under structural formula equality, on every step.
   Snapshots serialize the whole state vector, so the property compares
   every bit after every step, not just the verdict. *)

module Reference = struct
  type compiled = { subs : Formula.t array; index : (Formula.t * int) list }

  let compile formula =
    let subs = Array.of_list (Formula.subformulas formula) in
    { subs; index = Array.to_list (Array.mapi (fun i f -> (f, i)) subs) }

  let idx c f =
    match List.assoc_opt f c.index with Some i -> i | None -> assert false

  let compute_with c ~prev ~atom =
    let now = Array.make (Array.length c.subs) false in
    let value f = now.(idx c f) in
    let prev_of f = match prev with Some p -> p.(idx c f) | None -> value f in
    Array.iteri
      (fun i f ->
        now.(i) <-
          (match f with
          | Formula.True -> true
          | Formula.False -> false
          | Formula.Atom p -> atom p
          | Formula.Not g -> not (value g)
          | Formula.And (g, h) -> value g && value h
          | Formula.Or (g, h) -> value g || value h
          | Formula.Implies (g, h) -> (not (value g)) || value h
          | Formula.Prev g -> prev_of g
          | Formula.Once g -> value g || (prev <> None && prev_of f)
          | Formula.Historically g -> value g && (prev = None || prev_of f)
          | Formula.Since (g, h) -> value h || (prev <> None && value g && prev_of f)
          | Formula.Interval (g, h) ->
              (not (value h)) && (value g || (prev <> None && prev_of f))
          | Formula.Start g -> (
              match prev with None -> false | Some _ -> value g && not (prev_of g))
          | Formula.End g -> (
              match prev with None -> false | Some _ -> (not (value g)) && prev_of g)))
      c.subs;
    now

  let bits s = String.init (Array.length s) (fun i -> if s.(i) then '1' else '0')
end

let prop_compiled_monitor_equals_reference =
  QCheck.Test.make ~name:"compiled monitor = assoc-list reference, every bit"
    ~count:1000 arb_formula_trace (fun (f, tr) ->
      let compiled = Monitor.compile f and reference = Reference.compile f in
      (* The same atoms over an [int array] state, as the online observer
         evaluates them: [x] in slot 0, [y] in slot 1. *)
      let slot = function "x" -> 0 | "y" -> 1 | _ -> assert false in
      let atoms = Array.map (Predicate.compile ~slot) (Monitor.atoms compiled) in
      let rec drive ours slots theirs = function
        | [] -> true
        | s :: rest ->
            let atom p = Predicate.holds p s in
            let vals = [| State.get s "x"; State.get s "y" |] in
            let values = Array.map (fun a -> a vals) atoms in
            let ours, slots, theirs =
              match (ours, slots, theirs) with
              | Some m, Some n, Some r ->
                  ( Monitor.step compiled m s,
                    Monitor.step_atoms compiled n values,
                    Reference.compute_with reference ~prev:(Some r) ~atom )
              | _ ->
                  ( Monitor.init compiled s,
                    Monitor.init_atoms compiled values,
                    Reference.compute_with reference ~prev:None ~atom )
            in
            let expected = Reference.bits theirs in
            Monitor.state_to_string ours = expected
            && Monitor.state_to_string slots = expected
            && drive (Some ours) (Some slots) (Some theirs) rest
      in
      drive None None None tr)

(* [compare_state] orders states exactly as [Stdlib.compare] orders their
   bool arrays: monitor-state sets, and the snapshot lines listing their
   elements, depend on it. *)
let prop_compare_state_is_stdlib =
  QCheck.Test.make ~name:"compare_state = Stdlib.compare on bool arrays" ~count:300
    QCheck.(pair arb_formula_trace arb_formula_trace)
    (fun ((f, tr), (_, tr')) ->
      let compiled = Monitor.compile f in
      let states tr =
        List.fold_left
          (fun acc s ->
            match acc with
            | [] -> [ Monitor.init compiled s ]
            | m :: _ -> Monitor.step compiled m s :: acc)
          [] tr
      in
      let bools m =
        let b = Monitor.state_to_string m in
        Array.init (String.length b) (fun i -> b.[i] = '1')
      in
      let sign x = compare x 0 in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              sign (Monitor.compare_state a b) = sign (Stdlib.compare (bools a) (bools b)))
            (states tr'))
        (states tr))

(* {1 Formula parser} *)

let formula =
  Alcotest.testable (Fmt.of_to_string Formula.to_string) Formula.equal

let test_fparser_basics () =
  Alcotest.check formula "predicate" (atom "x" 1) (Fparser.parse "x == 1");
  Alcotest.check formula "interval"
    (Formula.Interval (atom "p" 1, atom "q" 1))
    (Fparser.parse "[p == 1, q == 1)");
  Alcotest.check formula "implication right assoc"
    (Formula.Implies (Formula.True, Formula.Implies (Formula.False, Formula.True)))
    (Fparser.parse "true ==> false ==> true");
  Alcotest.check formula "landing spec concrete syntax" Formula.landing_spec
    (Fparser.parse "(start landing == 1) ==> [approved == 1, radio == 0)");
  Alcotest.check formula "xyz spec concrete syntax" Formula.xyz_spec
    (Fparser.parse "x > 0 ==> [y == 0, y > z)")

let test_fparser_parenthesized_predicate () =
  Alcotest.check formula "(x + 1) > 0 is a predicate"
    (Formula.cmp Predicate.Gt (Predicate.Add (Predicate.Var "x", Predicate.Const 1))
       (Predicate.Const 0))
    (Fparser.parse "(x + 1) > 0");
  Alcotest.check formula "(x > 0) is a formula"
    (Formula.cmp Predicate.Gt (Predicate.Var "x") (Predicate.Const 0))
    (Fparser.parse "(x > 0)")

let test_fparser_errors () =
  List.iter
    (fun src ->
      match Fparser.parse src with
      | exception Fparser.Error _ -> ()
      | f -> Alcotest.failf "expected error for %S, got %s" src (Formula.to_string f))
    [ ""; "x =="; "[x == 1)"; "x == 1)"; "prev"; "x ==> "; "x @ y" ]

let prop_fparser_roundtrip =
  QCheck.Test.make ~name:"parse (to_string f) = f" ~count:500
    (QCheck.make ~print:Formula.to_string gen_formula) (fun f ->
      Formula.equal f (Fparser.parse (Formula.to_string f)))

(* {1 Patterns}

   The classic safety specification patterns (Dwyer et al.), restricted
   to safety and written in the specification syntax. *)

let check_trace f ls expected =
  Alcotest.(check (option int)) "violation index" expected
    (Semantics.first_violation f (List.map st ls))

let test_pattern_absence () =
  let f = Fparser.parse "always !(err == 1)" in
  check_trace f [ []; [ ("err", 0) ] ] None;
  check_trace f [ []; [ ("err", 1) ]; [ ("err", 0) ] ] (Some 1);
  (* absence is latching: the trace stays bad after the occurrence *)
  Alcotest.(check bool) "latching" true
    (Semantics.first_violation f (List.map st [ []; [ ("err", 1) ]; [ ("err", 0) ] ])
    = Some 1)

let test_pattern_precedence () =
  let f = Fparser.parse "ack == 1 ==> once req == 1" in
  check_trace f [ [ ("req", 1) ]; [ ("req", 0); ("ack", 1) ] ] None;
  check_trace f [ [ ("ack", 1) ] ] (Some 0)

let test_pattern_interval_since () =
  (* Example 1 is exactly this pattern. *)
  let f = Fparser.parse "start landing == 1 ==> [approved == 1, radio == 0)" in
  Alcotest.(check bool) "matches the paper spec" true
    (Formula.equal f Formula.landing_spec)

let test_pattern_response_guard () =
  let f = Fparser.parse "once req == 1 ==> (!(err == 1) since req == 1)" in
  check_trace f [ [ ("req", 1) ]; [ ("req", 0) ] ] None;
  check_trace f [ [ ("req", 1) ]; [ ("req", 0); ("err", 1) ] ] (Some 1);
  (* an error before any request is fine *)
  check_trace f [ [ ("err", 1) ]; [ ("err", 0); ("req", 1) ] ] None

let test_pattern_mutex () =
  let f = Fparser.parse "!(in0 == 1 and in1 == 1)" in
  check_trace f [ [ ("in0", 1) ]; [ ("in0", 0); ("in1", 1) ] ] None;
  check_trace f [ [ ("in0", 1); ("in1", 1) ] ] (Some 0)

let test_pattern_non_decreasing_and_rising () =
  let f = Fparser.parse "once v > 0 ==> !(v == 0)" in
  check_trace f [ [ ("v", 0) ]; [ ("v", 1) ]; [ ("v", 2) ] ] None;
  check_trace f [ [ ("v", 1) ]; [ ("v", 0) ] ] (Some 1);
  let r = Fparser.parse "start v != 0" in
  let tr = trace_of_lists [ [ ("v", 0) ]; [ ("v", 3) ]; [ ("v", 3) ] ] in
  Alcotest.(check (list bool)) "rising edge only" [ false; true; false ]
    (Array.to_list (Semantics.eval r tr))

(* {1 FSM synthesis} *)

let test_fsm_shapes () =
  let fsm = Fsm.synthesize Formula.landing_spec in
  Alcotest.(check int) "three atoms" 3 (List.length (Fsm.atoms fsm));
  Alcotest.(check bool) "few states" true (Fsm.state_count fsm <= 16);
  let minimized = Fsm.minimize fsm in
  Alcotest.(check bool) "minimize does not grow" true
    (Fsm.state_count minimized <= Fsm.state_count fsm)

let test_fsm_true_false () =
  let t = Fsm.synthesize Formula.True in
  Alcotest.(check int) "true: one state" 1 (Fsm.state_count (Fsm.minimize t));
  Alcotest.(check bool) "true verdict" true (Fsm.verdict t (Fsm.initial t 0));
  let f = Fsm.synthesize Formula.False in
  Alcotest.(check bool) "false verdict" false (Fsm.verdict f (Fsm.initial f 0))

let test_fsm_runs_paper_examples () =
  let fsm = Fsm.synthesize Formula.landing_spec in
  let states values =
    List.map (fun (l, a, r) -> st [ ("landing", l); ("approved", a); ("radio", r) ]) values
  in
  let ok = states [ (0, 0, 1); (0, 1, 1); (1, 1, 1); (1, 1, 0) ] in
  Alcotest.(check (list bool)) "observed run accepted" [ true; true; true; true ]
    (Fsm.run fsm ok);
  let bad = states [ (0, 0, 1); (0, 1, 1); (0, 1, 0); (1, 1, 0) ] in
  Alcotest.(check bool) "violating run rejected at the end" false
    (List.nth (Fsm.run fsm bad) 3)

let test_fsm_atom_budget () =
  (* 21 distinct atoms exceed the alphabet budget. *)
  let big =
    List.init 21 (fun i -> atom (Printf.sprintf "v%d" i) 1)
    |> List.fold_left (fun acc f -> Formula.And (acc, f)) Formula.True
  in
  match Fsm.synthesize big with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected atom-budget rejection"

let arb_small_formula_trace =
  QCheck.make
    ~print:(fun (f, tr) ->
      Format.asprintf "%a over %a" Formula.pp f (Format.pp_print_list State.pp) tr)
    QCheck.Gen.(pair gen_small_formula gen_trace)

let prop_fsm_equals_monitor =
  QCheck.Test.make ~name:"FSM = synthesized monitor = semantics" ~count:400
    arb_small_formula_trace (fun (f, tr) ->
      let fsm = Fsm.synthesize ~max_states:100_000 f in
      let expected = Array.to_list (Semantics.eval f (Array.of_list tr)) in
      Fsm.run fsm tr = expected)

let prop_fsm_minimize_preserves =
  QCheck.Test.make ~name:"minimized FSM accepts the same traces" ~count:400
    arb_small_formula_trace (fun (f, tr) ->
      let fsm = Fsm.synthesize ~max_states:100_000 f in
      Fsm.run (Fsm.minimize fsm) tr = Fsm.run fsm tr)

let prop_fsm_minimize_minimal =
  QCheck.Test.make ~name:"minimization is idempotent" ~count:200
    (QCheck.make ~print:Formula.to_string gen_small_formula) (fun f ->
      let m = Fsm.minimize (Fsm.synthesize ~max_states:100_000 f) in
      Fsm.state_count (Fsm.minimize m) = Fsm.state_count m)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_monitor_equals_semantics; prop_monitor_state_determinism; prop_fparser_roundtrip;
      prop_fsm_equals_monitor; prop_fsm_minimize_preserves; prop_fsm_minimize_minimal;
      prop_compiled_monitor_equals_reference; prop_compare_state_is_stdlib ]

let () =
  Alcotest.run "pastltl"
    [ ( "state",
        [ Alcotest.test_case "basics" `Quick test_state_basics ] );
      ( "predicate",
        [ Alcotest.test_case "evaluation" `Quick test_predicates ] );
      ( "formula",
        [ Alcotest.test_case "vars and size" `Quick test_formula_vars_and_size ] );
      ( "semantics",
        [ Alcotest.test_case "prev" `Quick test_semantics_prev;
          Alcotest.test_case "once/historically" `Quick test_semantics_once_historically;
          Alcotest.test_case "since" `Quick test_semantics_since;
          Alcotest.test_case "interval" `Quick test_semantics_interval;
          Alcotest.test_case "start/end" `Quick test_semantics_start_end;
          Alcotest.test_case "first violation" `Quick test_first_violation;
          Alcotest.test_case "landing spec" `Quick test_landing_spec_runs;
          Alcotest.test_case "xyz spec" `Quick test_xyz_spec_runs ] );
      ( "patterns",
        [ Alcotest.test_case "absence" `Quick test_pattern_absence;
          Alcotest.test_case "precedence" `Quick test_pattern_precedence;
          Alcotest.test_case "interval since = Example 1" `Quick
            test_pattern_interval_since;
          Alcotest.test_case "response guard" `Quick test_pattern_response_guard;
          Alcotest.test_case "mutual exclusion" `Quick test_pattern_mutex;
          Alcotest.test_case "non-decreasing and rising" `Quick
            test_pattern_non_decreasing_and_rising ] );
      ( "fsm",
        [ Alcotest.test_case "shapes" `Quick test_fsm_shapes;
          Alcotest.test_case "true/false" `Quick test_fsm_true_false;
          Alcotest.test_case "paper examples" `Quick test_fsm_runs_paper_examples;
          Alcotest.test_case "atom budget" `Quick test_fsm_atom_budget ] );
      ( "fparser",
        [ Alcotest.test_case "basics" `Quick test_fparser_basics;
          Alcotest.test_case "parenthesized predicate" `Quick
            test_fparser_parenthesized_predicate;
          Alcotest.test_case "errors" `Quick test_fparser_errors ] );
      ("properties", properties) ]
