(* Tests for TML front end: lexer, parser, pretty-printer round trips,
   typechecker diagnostics, compiler output shape. *)

open Tml

(* {1 Generators} *)

let shared_pool = [ "x"; "y"; "z" ]
let local_pool = [ "a"; "b" ]
let lock_pool = [ "m"; "n" ]

let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
      if size <= 1 then
        oneof
          [ map (fun n -> Ast.Int n) (int_range (-20) 20);
            map (fun x -> Ast.Var x) (oneofl (shared_pool @ local_pool)) ]
      else
        frequency
          [ (2, map (fun n -> Ast.Int n) (int_range (-20) 20));
            (2, map (fun x -> Ast.Var x) (oneofl (shared_pool @ local_pool)));
            (1, map2 (fun op e -> Ast.Unop (op, e)) (oneofl [ Ast.Neg; Ast.Not ])
                 (self (size / 2)));
            ( 4,
              map3
                (fun op a b -> Ast.Binop (op, a, b))
                (oneofl
                   [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Eq; Ast.Ne;
                     Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.And; Ast.Or ])
                (self (size / 2)) (self (size / 2)) );
            ( 1,
              map (fun es -> Ast.Choose es)
                (list_size (int_range 1 3) (self (size / 3))) ) ]))

let gen_stmt =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
      let leaf =
        oneof
          [ return Ast.Skip;
            map (fun k -> Ast.Nop k) (int_range 1 3);
            map2 (fun x e -> Ast.Assign (x, e)) (oneofl shared_pool) gen_expr;
            map (fun l -> Ast.Lock l) (oneofl lock_pool);
            map (fun l -> Ast.Unlock l) (oneofl lock_pool);
            map (fun c -> Ast.Wait c) (oneofl [ "cv"; "cw" ]);
            map (fun c -> Ast.Notify c) (oneofl [ "cv"; "cw" ]) ]
      in
      if size <= 1 then leaf
      else
        frequency
          [ (3, leaf);
            (2, map Ast.seq (list_size (int_range 1 4) (self (size / 3))));
            ( 2,
              map3 (fun c a b -> Ast.If (c, a, b)) gen_expr (self (size / 2))
                (self (size / 2)) );
            (1, map2 (fun c b -> Ast.While (c, b)) gen_expr (self (size / 2)));
            (1, map2 (fun l b -> Ast.Sync (l, b)) (oneofl lock_pool) (self (size / 2))) ]))

(* Normalization the parser applies: sequences flattened, Skip dropped
   inside sequences, arithmetic negation of a literal folded into the
   literal. *)
let rec normalize_expr = function
  | Ast.Unop (Ast.Neg, e) -> (
      match normalize_expr e with Ast.Int n -> Ast.Int (-n) | e -> Ast.Unop (Ast.Neg, e))
  | Ast.Unop (op, e) -> Ast.Unop (op, normalize_expr e)
  | Ast.Binop (op, a, b) -> Ast.Binop (op, normalize_expr a, normalize_expr b)
  | Ast.Choose es -> Ast.Choose (List.map normalize_expr es)
  | (Ast.Int _ | Ast.Var _) as e -> e

let rec normalize_stmt s =
  match s with
  | Ast.Seq ss -> Ast.seq (List.map normalize_stmt ss)
  | Ast.If (c, a, b) -> Ast.If (normalize_expr c, normalize_stmt a, normalize_stmt b)
  | Ast.While (c, b) -> Ast.While (normalize_expr c, normalize_stmt b)
  | Ast.Sync (l, b) -> Ast.Sync (l, normalize_stmt b)
  | Ast.Assign (x, e) -> Ast.Assign (x, normalize_expr e)
  | Ast.Local_decl (x, e) -> Ast.Local_decl (x, normalize_expr e)
  | ( Ast.Skip | Ast.Nop _ | Ast.Lock _ | Ast.Unlock _ | Ast.Wait _ | Ast.Notify _
    | Ast.Spawn _ | Ast.Join _ ) as s -> s

let gen_program =
  QCheck.Gen.(
    map
      (fun bodies ->
        let threads = List.mapi (fun i b -> (Printf.sprintf "t%d" i, b)) bodies in
        (* [a] and [b] are declared shared here so that expression
           generation can use them without local-declaration plumbing. *)
        Ast.program ~shared:[ ("x", -1); ("y", 0); ("z", 3); ("a", 0); ("b", 1) ] ~threads)
      (list_size (int_range 1 3) gen_stmt))

let arb_program = QCheck.make ~print:Pretty.program_to_string gen_program

(* {1 Lexer} *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "x == 12 && !y || z <= -3" |> List.map fst in
  Alcotest.(check int) "token count" 12 (List.length toks);
  Alcotest.(check string) "roundtrip text" "x == 12 && ! y || z <= - 3 <eof>"
    (String.concat " " (List.map Lexer.token_to_string toks))

let test_lexer_comments () =
  let toks = Lexer.tokenize "x // comment\n= /* block\n comment */ 1;" |> List.map fst in
  Alcotest.(check int) "comments skipped" 5 (List.length toks)

let test_lexer_errors () =
  (match Lexer.tokenize "x @ y" with
  | exception Lexer.Error (msg, pos) ->
      Alcotest.(check bool) "mentions char" true
        (String.length msg > 0 && pos.Lexer.line = 1 && pos.Lexer.col = 3)
  | _ -> Alcotest.fail "expected lexer error");
  match Lexer.tokenize "a /* open" with
  | exception Lexer.Error (msg, _) ->
      Alcotest.(check string) "unterminated comment" "unterminated block comment" msg
  | _ -> Alcotest.fail "expected lexer error"

let test_lexer_positions () =
  let toks = Lexer.tokenize "x\n  y" in
  match toks with
  | [ (Lexer.IDENT "x", p1); (Lexer.IDENT "y", p2); (Lexer.EOF, _) ] ->
      Alcotest.(check (pair int int)) "x at 1,1" (1, 1) (p1.Lexer.line, p1.Lexer.col);
      Alcotest.(check (pair int int)) "y at 2,3" (2, 3) (p2.Lexer.line, p2.Lexer.col)
  | _ -> Alcotest.fail "unexpected token stream"

(* {1 Parser} *)

let expr = Alcotest.testable (Fmt.of_to_string Pretty.expr_to_string) ( = )
let stmt = Alcotest.testable (Fmt.of_to_string Pretty.stmt_to_string) ( = )

let test_parse_precedence () =
  Alcotest.check expr "mul binds tighter"
    Ast.(Binop (Add, Var "x", Binop (Mul, Int 2, Var "y")))
    (Parser.parse_expr "x + 2 * y");
  Alcotest.check expr "comparison over arithmetic"
    Ast.(Binop (Lt, Binop (Add, Var "x", Int 1), Var "y"))
    (Parser.parse_expr "x + 1 < y");
  Alcotest.check expr "and over or"
    Ast.(Binop (Or, Var "x", Binop (And, Var "y", Var "z")))
    (Parser.parse_expr "x || y && z");
  Alcotest.check expr "negative literal folds" (Ast.Int (-5)) (Parser.parse_expr "-5");
  Alcotest.check expr "parens override"
    Ast.(Binop (Mul, Binop (Add, Var "x", Int 1), Int 2))
    (Parser.parse_expr "(x + 1) * 2")

let test_parse_left_assoc () =
  Alcotest.check expr "subtraction left-assoc"
    Ast.(Binop (Sub, Binop (Sub, Int 1, Int 2), Int 3))
    (Parser.parse_expr "1 - 2 - 3")

let test_parse_choose () =
  Alcotest.check expr "choose"
    Ast.(Choose [ Int 0; Binop (Add, Var "x", Int 1) ])
    (Parser.parse_expr "choose(0, x + 1)")

let test_parse_statements () =
  Alcotest.check stmt "if-else-if chain"
    Ast.(
      If
        ( Binop (Eq, Var "x", Int 0),
          Assign ("y", Int 1),
          If (Binop (Eq, Var "x", Int 1), Assign ("y", Int 2), Skip) ))
    (Parser.parse_stmt "if (x == 0) { y = 1; } else if (x == 1) { y = 2; }");
  Alcotest.check stmt "sync block"
    Ast.(Sync ("m", Assign ("x", Int 1)))
    (Parser.parse_stmt "sync (m) { x = 1; }");
  Alcotest.check stmt "nop default count" (Ast.Nop 1) (Parser.parse_stmt "nop;");
  Alcotest.check stmt "nop explicit" (Ast.Nop 4) (Parser.parse_stmt "nop 4;")

let test_parse_program_structure () =
  let p =
    Parser.parse_program
      "shared a = 1, b = -2; shared c = 3; thread t { a = b; } thread u { skip; }"
  in
  Alcotest.(check (list (pair string int))) "shared decls merge"
    [ ("a", 1); ("b", -2); ("c", 3) ] p.Ast.shared;
  Alcotest.(check (list string)) "thread names" [ "t"; "u" ]
    (List.map (fun t -> t.Ast.tname) p.Ast.threads)

let expect_parse_error src =
  match Parser.parse_program src with
  | exception Parser.Error _ -> ()
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.failf "expected parse error for %S" src

let test_parse_errors () =
  List.iter expect_parse_error
    [ ""; "thread t {"; "thread t { x = ; }"; "shared x; thread t { }";
      "thread t { if x { } }"; "thread t { nop 0; }"; "thread t { } garbage";
      "thread t { choose(); }" ]

(* {1 Round trips} *)

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"parse (print e) = e" ~count:500
    (QCheck.make ~print:Pretty.expr_to_string gen_expr) (fun e ->
      normalize_expr e = Parser.parse_expr (Pretty.expr_to_string e))

let prop_stmt_roundtrip =
  QCheck.Test.make ~name:"parse (print s) = normalize s" ~count:500
    (QCheck.make ~print:Pretty.stmt_to_string gen_stmt) (fun s ->
      normalize_stmt s = Parser.parse_stmt (Pretty.stmt_to_string s))

let prop_program_roundtrip =
  QCheck.Test.make ~name:"parse (print p) = normalize p" ~count:300 arb_program (fun p ->
      let normalize (p : Ast.program) =
        { p with
          threads =
            List.map (fun t -> { t with Ast.body = normalize_stmt t.Ast.body }) p.threads }
      in
      normalize p = Parser.parse_program (Pretty.program_to_string p))

(* {1 Typecheck} *)

let errors_of p = match Typecheck.check p with Ok () -> [] | Error es -> es

let test_typecheck_ok () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check (list string)) (name ^ " well-formed") []
        (List.map Typecheck.error_to_string (errors_of p)))
    (Programs.all_named ())

let test_typecheck_undeclared () =
  let p = Parser.parse_program "shared x = 0; thread t { y = x; }" in
  Alcotest.(check int) "one error" 1 (List.length (errors_of p));
  let p2 = Parser.parse_program "shared x = 0; thread t { x = q + 1; }" in
  Alcotest.(check int) "undeclared in expression" 1 (List.length (errors_of p2))

let test_typecheck_locals () =
  let shadow = Parser.parse_program "shared x = 0; thread t { local x = 1; }" in
  Alcotest.(check bool) "shadowing rejected" true (errors_of shadow <> []);
  let redecl = Parser.parse_program "thread t { local a = 1; local a = 2; }" in
  Alcotest.(check bool) "redeclaration rejected" true (errors_of redecl <> []);
  let use_before = Parser.parse_program "thread t { local a = b; local b = 1; }" in
  Alcotest.(check bool) "use before declaration rejected" true (errors_of use_before <> [])

let test_typecheck_duplicates () =
  let p = Parser.parse_program "shared x = 0, x = 1; thread t { skip; } thread t { skip; }" in
  Alcotest.(check int) "duplicate shared and thread" 2 (List.length (errors_of p))

(* {1 Compiler} *)

let test_compile_shapes () =
  let image = Compile.compile Programs.landing_bounded in
  Alcotest.(check bool) "valid" true (Result.is_ok (Bytecode.validate image));
  Alcotest.(check bool) "not instrumented" false image.Bytecode.instrumented;
  Alcotest.(check int) "two threads" 2 (Bytecode.nthreads image);
  let instrumented = Instrument.instrument image in
  Alcotest.(check bool) "instrumented flag" true instrumented.Bytecode.instrumented;
  Alcotest.(check bool) "instrumented valid" true
    (Result.is_ok (Bytecode.validate instrumented));
  Alcotest.(check (array int)) "same instruction counts"
    (Array.map Array.length image.Bytecode.code)
    (Array.map Array.length instrumented.Bytecode.code)

let test_instrument_twice_rejected () =
  let image = Instrument.instrument_program Programs.xyz in
  Alcotest.check_raises "double instrumentation"
    (Invalid_argument "Instrument: image already instrumented") (fun () ->
      ignore (Instrument.instrument image))

let test_sync_variables () =
  let image = Compile.compile Programs.bank_transfer in
  Alcotest.(check (list string)) "locks lowered to dummy vars"
    [ Trace.Types.lock_var "la"; Trace.Types.lock_var "lb" ]
    (Instrument.sync_variables image)

let test_compile_rejects_illformed () =
  let p = Parser.parse_program "thread t { q = 1; }" in
  match Compile.compile p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let prop_compile_valid =
  QCheck.Test.make ~name:"generated programs compile to valid images" ~count:300
    arb_program (fun p ->
      (* Generated programs may use locals before declaring them; only
         well-formed ones must compile. *)
      match Typecheck.check p with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
          let image = Compile.compile p in
          Result.is_ok (Bytecode.validate image)
          && Result.is_ok (Bytecode.validate (Instrument.instrument image)))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_expr_roundtrip; prop_stmt_roundtrip; prop_program_roundtrip; prop_compile_valid ]

let () =
  Alcotest.run "tml-parser"
    [ ( "lexer",
        [ Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "positions" `Quick test_lexer_positions ] );
      ( "parser",
        [ Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "left associativity" `Quick test_parse_left_assoc;
          Alcotest.test_case "choose" `Quick test_parse_choose;
          Alcotest.test_case "statements" `Quick test_parse_statements;
          Alcotest.test_case "program structure" `Quick test_parse_program_structure;
          Alcotest.test_case "errors" `Quick test_parse_errors ] );
      ( "typecheck",
        [ Alcotest.test_case "named programs well-formed" `Quick test_typecheck_ok;
          Alcotest.test_case "undeclared variables" `Quick test_typecheck_undeclared;
          Alcotest.test_case "local scoping" `Quick test_typecheck_locals;
          Alcotest.test_case "duplicates" `Quick test_typecheck_duplicates; ] );
      ( "compiler",
        [ Alcotest.test_case "image shapes" `Quick test_compile_shapes;
          Alcotest.test_case "double instrumentation" `Quick test_instrument_twice_rejected;
          Alcotest.test_case "sync variables" `Quick test_sync_variables;
          Alcotest.test_case "ill-formed rejected" `Quick test_compile_rejects_illformed ] );
      ("properties", properties) ]
