type error = { thread : string option; message : string }

let pp_error ppf { thread; message } =
  match thread with
  | None -> Format.pp_print_string ppf message
  | Some t -> Format.fprintf ppf "thread %s: %s" t message

let error_to_string e = Format.asprintf "%a" pp_error e

let shared_vars (p : Ast.program) = List.map fst p.shared

module Sset = Set.Make (String)

let rec dups seen = function
  | [] -> []
  | x :: rest -> if Sset.mem x seen then x :: dups seen rest else dups (Sset.add x seen) rest

let check (p : Ast.program) =
  let errors = ref [] in
  let err ?thread fmt = Format.kasprintf (fun message -> errors := { thread; message } :: !errors) fmt in
  List.iter (fun x -> err "duplicate shared variable %s" x) (dups Sset.empty (shared_vars p));
  List.iter
    (fun t -> err "duplicate thread name %s" t)
    (dups Sset.empty (List.map (fun t -> t.Ast.tname) p.threads));
  if p.threads = [] then err "program has no threads";
  let shared = Sset.of_list (shared_vars p) in
  let thread_names = Sset.of_list (List.map (fun t -> t.Ast.tname) p.threads) in
  let check_thread (t : Ast.thread) =
    let thread = t.tname in
    let err fmt = err ~thread fmt in
    (* [locals] is the set declared on every path so far; declaration
       inside a branch counts for the code after the branch only if both
       branches declare it — we keep the simpler, stricter rule that a
       local is visible from its declaration point onward in syntactic
       order, which is what the compiler implements. *)
    let locals = ref Sset.empty in
    let rec check_expr = function
      | Ast.Int _ -> ()
      | Ast.Var x ->
          if not (Sset.mem x shared || Sset.mem x !locals) then
            err "use of undeclared variable %s" x
      | Ast.Unop (_, e) -> check_expr e
      | Ast.Binop (_, a, b) ->
          check_expr a;
          check_expr b
      | Ast.Choose es ->
          if es = [] then err "choose() needs at least one alternative";
          List.iter check_expr es
    in
    let rec check_stmt = function
      | Ast.Skip -> ()
      | Ast.Nop k -> if k < 1 then err "nop count must be >= 1 (got %d)" k
      | Ast.Assign (x, e) ->
          check_expr e;
          if not (Sset.mem x shared || Sset.mem x !locals) then
            err "assignment to undeclared variable %s" x
      | Ast.Local_decl (x, e) ->
          check_expr e;
          if Sset.mem x shared then err "local %s shadows a shared variable" x;
          if Sset.mem x !locals then err "local %s redeclared" x;
          locals := Sset.add x !locals
      | Ast.Seq ss -> List.iter check_stmt ss
      | Ast.If (c, a, b) ->
          check_expr c;
          check_stmt a;
          check_stmt b
      | Ast.While (c, b) ->
          check_expr c;
          check_stmt b
      | Ast.Sync (_, b) -> check_stmt b
      | Ast.Spawn target | Ast.Join target ->
          if not (Sset.mem target thread_names) then
            err "spawn/join of unknown thread %s" target;
          if target = thread then err "a thread cannot spawn or join itself"
      | Ast.Lock _ | Ast.Unlock _ | Ast.Wait _ | Ast.Notify _ -> ()
    in
    check_stmt t.body
  in
  List.iter check_thread p.threads;
  match List.rev !errors with [] -> Ok () | es -> Error es

let check_exn p =
  match check p with
  | Ok () -> ()
  | Error es ->
      invalid_arg
        ("Typecheck: " ^ String.concat "; " (List.map error_to_string es))
