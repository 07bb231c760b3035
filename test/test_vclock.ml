(* Unit and property tests for Vclock: lattice laws, order laws,
   serialization round-trips. *)

let vc = Vclock.of_list

let check_clock msg expected actual =
  Alcotest.(check (list int)) msg (Vclock.to_list expected) (Vclock.to_list actual)

(* {1 Unit tests} *)

let test_zero () =
  let z = Vclock.zero 3 in
  Alcotest.(check int) "dim" 3 (Vclock.dim z);
  Alcotest.(check (list int)) "components" [ 0; 0; 0 ] (Vclock.to_list z);
  Alcotest.(check int) "sum" 0 (Vclock.sum z)

let test_zero_invalid () =
  Alcotest.check_raises "zero 0" (Invalid_argument "Vclock: dimension must be positive")
    (fun () -> ignore (Vclock.zero 0));
  Alcotest.check_raises "zero -1" (Invalid_argument "Vclock: dimension must be positive")
    (fun () -> ignore (Vclock.zero (-1)))

let test_get_set () =
  let v = vc [ 1; 2; 3 ] in
  Alcotest.(check int) "get 0" 1 (Vclock.get v 0);
  Alcotest.(check int) "get 2" 3 (Vclock.get v 2);
  let w = Vclock.set v 1 9 in
  check_clock "set" (vc [ 1; 9; 3 ]) w;
  check_clock "original untouched" (vc [ 1; 2; 3 ]) v

let test_get_out_of_bounds () =
  let v = vc [ 1; 2 ] in
  Alcotest.check_raises "get -1" (Invalid_argument "Vclock.get: index out of bounds")
    (fun () -> ignore (Vclock.get v (-1)));
  Alcotest.check_raises "get 2" (Invalid_argument "Vclock.get: index out of bounds")
    (fun () -> ignore (Vclock.get v 2))

let test_set_negative () =
  Alcotest.check_raises "set negative" (Invalid_argument "Vclock.set: negative component")
    (fun () -> ignore (Vclock.set (vc [ 0 ]) 0 (-1)))

let test_inc () =
  let v = vc [ 0; 5 ] in
  check_clock "inc 0" (vc [ 1; 5 ]) (Vclock.inc v 0);
  check_clock "inc 1" (vc [ 0; 6 ]) (Vclock.inc v 1);
  check_clock "inc twice" (vc [ 2; 5 ]) (Vclock.inc (Vclock.inc v 0) 0)

let test_max () =
  check_clock "max" (vc [ 3; 2; 5 ]) (Vclock.max (vc [ 3; 0; 5 ]) (vc [ 1; 2; 4 ]));
  check_clock "max idempotent" (vc [ 1; 2 ]) (Vclock.max (vc [ 1; 2 ]) (vc [ 1; 2 ]))

let test_max_dim_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Vclock: dimension mismatch")
    (fun () -> ignore (Vclock.max (vc [ 1 ]) (vc [ 1; 2 ])))

let test_leq_lt () =
  Alcotest.(check bool) "leq refl" true (Vclock.leq (vc [ 1; 2 ]) (vc [ 1; 2 ]));
  Alcotest.(check bool) "leq" true (Vclock.leq (vc [ 1; 2 ]) (vc [ 2; 2 ]));
  Alcotest.(check bool) "not leq" false (Vclock.leq (vc [ 1; 3 ]) (vc [ 2; 2 ]));
  Alcotest.(check bool) "lt strict" true (Vclock.lt (vc [ 1; 2 ]) (vc [ 1; 3 ]));
  Alcotest.(check bool) "lt not refl" false (Vclock.lt (vc [ 1; 2 ]) (vc [ 1; 2 ]))

let test_concurrent () =
  Alcotest.(check bool) "concurrent" true (Vclock.concurrent (vc [ 1; 0 ]) (vc [ 0; 1 ]));
  Alcotest.(check bool) "ordered not concurrent" false
    (Vclock.concurrent (vc [ 1; 0 ]) (vc [ 1; 1 ]));
  Alcotest.(check bool) "equal not concurrent" false
    (Vclock.concurrent (vc [ 1; 1 ]) (vc [ 1; 1 ]))

let test_of_array_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Vclock: dimension must be positive")
    (fun () -> ignore (Vclock.of_array [||]));
  Alcotest.check_raises "negative" (Invalid_argument "Vclock.of_array: negative component")
    (fun () -> ignore (Vclock.of_array [| 1; -2 |]))

let test_of_array_copies () =
  let a = [| 1; 2 |] in
  let v = Vclock.of_array a in
  a.(0) <- 99;
  Alcotest.(check int) "insulated from mutation" 1 (Vclock.get v 0);
  let b = Vclock.to_array v in
  b.(1) <- 42;
  Alcotest.(check int) "to_array copies" 2 (Vclock.get v 1)

let test_to_string () =
  Alcotest.(check string) "print" "(1,0,2)" (Vclock.to_string (vc [ 1; 0; 2 ]));
  Alcotest.(check string) "singleton" "(7)" (Vclock.to_string (vc [ 7 ]))

let test_of_string () =
  check_clock "parse" (vc [ 1; 0; 2 ]) (Vclock.of_string "(1,0,2)");
  check_clock "parse spaces" (vc [ 3; 4 ]) (Vclock.of_string "(3, 4)")

let test_of_string_invalid () =
  let expect s =
    match Vclock.of_string s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "of_string %S should have raised" s
  in
  List.iter expect [ ""; "1,2"; "(1,2"; "(a,b)"; "()" ]

let test_sum () =
  Alcotest.(check int) "sum" 6 (Vclock.sum (vc [ 1; 2; 3 ]))

(* {1 Properties} *)

let clock_gen n =
  QCheck.Gen.(array_size (return n) (int_bound 20) >|= Vclock.of_array)

let pair_gen n = QCheck.Gen.(pair (clock_gen n) (clock_gen n))
let triple_gen n = QCheck.Gen.(triple (clock_gen n) (clock_gen n) (clock_gen n))

let arb gen = QCheck.make ~print:(fun v -> Vclock.to_string v) gen
let arb_pair n = QCheck.make ~print:(fun (a, b) -> Vclock.to_string a ^ " " ^ Vclock.to_string b) (pair_gen n)

let arb_triple n =
  QCheck.make
    ~print:(fun (a, b, c) ->
      String.concat " " [ Vclock.to_string a; Vclock.to_string b; Vclock.to_string c ])
    (triple_gen n)

let prop_max_upper_bound =
  QCheck.Test.make ~name:"max is an upper bound" ~count:500 (arb_pair 4) (fun (a, b) ->
      let m = Vclock.max a b in
      Vclock.leq a m && Vclock.leq b m)

let prop_max_least =
  QCheck.Test.make ~name:"max is the least upper bound" ~count:500 (arb_triple 4)
    (fun (a, b, c) ->
      let m = Vclock.max a b in
      if Vclock.leq a c && Vclock.leq b c then Vclock.leq m c else true)

let prop_max_commutative =
  QCheck.Test.make ~name:"max commutative" ~count:500 (arb_pair 4) (fun (a, b) ->
      Vclock.equal (Vclock.max a b) (Vclock.max b a))

let prop_max_associative =
  QCheck.Test.make ~name:"max associative" ~count:500 (arb_triple 4) (fun (a, b, c) ->
      Vclock.equal (Vclock.max a (Vclock.max b c)) (Vclock.max (Vclock.max a b) c))

let prop_leq_antisymmetric =
  QCheck.Test.make ~name:"leq antisymmetric" ~count:500 (arb_pair 3) (fun (a, b) ->
      if Vclock.leq a b && Vclock.leq b a then Vclock.equal a b else true)

let prop_leq_transitive =
  QCheck.Test.make ~name:"leq transitive" ~count:500 (arb_triple 3) (fun (a, b, c) ->
      if Vclock.leq a b && Vclock.leq b c then Vclock.leq a c else true)

let prop_trichotomy =
  QCheck.Test.make ~name:"exactly one of <, >, =, || holds" ~count:500 (arb_pair 3)
    (fun (a, b) ->
      let cases =
        [ Vclock.lt a b; Vclock.lt b a; Vclock.equal a b; Vclock.concurrent a b ]
      in
      List.length (List.filter (fun x -> x) cases) = 1)

let prop_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string v) = v" ~count:500 (arb (clock_gen 5))
    (fun v -> Vclock.equal v (Vclock.of_string (Vclock.to_string v)))

let prop_inc_strictly_increases =
  QCheck.Test.make ~name:"inc strictly increases" ~count:500 (arb (clock_gen 4)) (fun v ->
      Vclock.lt v (Vclock.inc v 2))

let prop_sum_of_max_bounded =
  QCheck.Test.make ~name:"sum(max a b) <= sum a + sum b" ~count:500 (arb_pair 4)
    (fun (a, b) -> Vclock.sum (Vclock.max a b) <= Vclock.sum a + Vclock.sum b)

(* [to_string] and [add_to_buffer] fill bytes by hand; checkpoints pin
   their output, so it must stay the formatter's, digit for digit. *)
let prop_to_string_is_pp =
  QCheck.Test.make ~name:"to_string = add_to_buffer = pp" ~count:500
    QCheck.(pair (int_range 1 12) (int_bound 1_000_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let v =
        Vclock.of_array
          (Array.init n (fun _ ->
               match Random.State.int rng 3 with
               | 0 -> Random.State.int rng 10
               | 1 -> Random.State.int rng 100_000
               | _ -> Random.State.bits rng))
      in
      let buf = Buffer.create 8 in
      Vclock.add_to_buffer buf v;
      let expected = Format.asprintf "%a" Vclock.pp v in
      Vclock.to_string v = expected && Buffer.contents buf = expected)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_max_upper_bound; prop_max_least; prop_max_commutative; prop_max_associative;
      prop_leq_antisymmetric; prop_leq_transitive; prop_trichotomy; prop_roundtrip;
      prop_inc_strictly_increases; prop_sum_of_max_bounded; prop_to_string_is_pp ]

(* {1 Sparse clocks (Dvclock)} *)

let dv = Dvclock.of_list

let test_dv_basics () =
  Alcotest.(check int) "empty reads 0" 0 (Dvclock.get Dvclock.empty 5);
  let v = dv [ (0, 2); (3, 1) ] in
  Alcotest.(check int) "get present" 2 (Dvclock.get v 0);
  Alcotest.(check int) "get absent" 0 (Dvclock.get v 1);
  Alcotest.(check (list int)) "support" [ 0; 3 ] (Dvclock.support v);
  Alcotest.(check int) "sum" 3 (Dvclock.sum v);
  Alcotest.(check string) "printing" "{0:2, 3:1}" (Dvclock.to_string v)

let test_dv_zero_entries_normalized () =
  let v = Dvclock.set (dv [ (1, 5) ]) 1 0 in
  Alcotest.(check bool) "set to 0 removes" true (Dvclock.equal v Dvclock.empty);
  Alcotest.(check (list (pair int int))) "of_list drops zeros" [ (2, 1) ]
    (Dvclock.to_list (dv [ (0, 0); (2, 1) ]))

let test_dv_validation () =
  Alcotest.check_raises "negative id" (Invalid_argument "Dvclock: negative thread id")
    (fun () -> ignore (Dvclock.get Dvclock.empty (-1)));
  Alcotest.check_raises "negative count" (Invalid_argument "Dvclock.set: negative count")
    (fun () -> ignore (Dvclock.set Dvclock.empty 0 (-1)))

let test_dv_vclock_roundtrip () =
  let dense = vc [ 1; 0; 3 ] in
  let sparse = Dvclock.of_vclock dense in
  Alcotest.(check (list (pair int int))) "sparse form" [ (0, 1); (2, 3) ]
    (Dvclock.to_list sparse);
  check_clock "roundtrip" dense (Dvclock.to_vclock ~dim:3 sparse);
  Alcotest.check_raises "dim too small"
    (Invalid_argument "Dvclock.to_vclock: entry beyond dimension") (fun () ->
      ignore (Dvclock.to_vclock ~dim:2 sparse))

(* Sparse operations must agree with dense ones on any fixed dimension. *)
let dv_gen n = QCheck.Gen.(array_size (return n) (int_bound 5) >|= Vclock.of_array)

let arb_dv_pair =
  QCheck.make
    ~print:(fun (a, b) -> Vclock.to_string a ^ " " ^ Vclock.to_string b)
    QCheck.Gen.(pair (dv_gen 4) (dv_gen 4))

let prop_dv_agrees_with_dense =
  QCheck.Test.make ~name:"sparse ops agree with dense ops" ~count:500 arb_dv_pair
    (fun (a, b) ->
      let sa = Dvclock.of_vclock a and sb = Dvclock.of_vclock b in
      Dvclock.leq sa sb = Vclock.leq a b
      && Dvclock.lt sa sb = Vclock.lt a b
      && Dvclock.equal sa sb = Vclock.equal a b
      && Dvclock.concurrent sa sb = Vclock.concurrent a b
      && Dvclock.equal (Dvclock.max sa sb) (Dvclock.of_vclock (Vclock.max a b))
      && Dvclock.sum sa = Vclock.sum a
      && Dvclock.equal (Dvclock.inc sa 2) (Dvclock.of_vclock (Vclock.inc a 2)))

let prop_dv_partial_order =
  QCheck.Test.make ~name:"sparse leq antisymmetric and transitive" ~count:500
    (QCheck.make
       ~print:(fun (a, b, c) ->
         String.concat " " (List.map Vclock.to_string [ a; b; c ]))
       QCheck.Gen.(triple (dv_gen 3) (dv_gen 3) (dv_gen 3)))
    (fun (a, b, c) ->
      let sa = Dvclock.of_vclock a
      and sb = Dvclock.of_vclock b
      and sc = Dvclock.of_vclock c in
      ((not (Dvclock.leq sa sb && Dvclock.leq sb sa)) || Dvclock.equal sa sb)
      && ((not (Dvclock.leq sa sb && Dvclock.leq sb sc)) || Dvclock.leq sa sc))

let dv_properties =
  List.map QCheck_alcotest.to_alcotest [ prop_dv_agrees_with_dense; prop_dv_partial_order ]

let () =
  Alcotest.run "vclock"
    [ ( "unit",
        [ Alcotest.test_case "zero" `Quick test_zero;
          Alcotest.test_case "zero invalid" `Quick test_zero_invalid;
          Alcotest.test_case "get/set" `Quick test_get_set;
          Alcotest.test_case "get out of bounds" `Quick test_get_out_of_bounds;
          Alcotest.test_case "set negative" `Quick test_set_negative;
          Alcotest.test_case "inc" `Quick test_inc;
          Alcotest.test_case "max" `Quick test_max;
          Alcotest.test_case "max dim mismatch" `Quick test_max_dim_mismatch;
          Alcotest.test_case "leq/lt" `Quick test_leq_lt;
          Alcotest.test_case "concurrent" `Quick test_concurrent;
          Alcotest.test_case "of_array validation" `Quick test_of_array_validation;
          Alcotest.test_case "of_array copies" `Quick test_of_array_copies;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "of_string" `Quick test_of_string;
          Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
          Alcotest.test_case "sum" `Quick test_sum ] );
      ("properties", properties);
      ( "dvclock",
        [ Alcotest.test_case "basics" `Quick test_dv_basics;
          Alcotest.test_case "zero entries normalized" `Quick test_dv_zero_entries_normalized;
          Alcotest.test_case "validation" `Quick test_dv_validation;
          Alcotest.test_case "vclock roundtrip" `Quick test_dv_vclock_roundtrip ] );
      ("dvclock-properties", dv_properties) ]
