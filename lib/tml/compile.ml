open Bytecode

(* Growable code buffer with backpatching. *)
type buf = { mutable instrs : instr array; mutable len : int }

let new_buf () = { instrs = Array.make 64 Halt; len = 0 }

let emit buf i =
  if buf.len = Array.length buf.instrs then begin
    let bigger = Array.make (2 * buf.len) Halt in
    Array.blit buf.instrs 0 bigger 0 buf.len;
    buf.instrs <- bigger
  end;
  buf.instrs.(buf.len) <- i;
  buf.len <- buf.len + 1

let here buf = buf.len

(* Emits a placeholder jump and returns its address for later patching. *)
let emit_patchable buf =
  let at = here buf in
  emit buf (Jump (-1));
  at

let patch buf at i = buf.instrs.(at) <- i

let finish buf =
  emit buf Halt;
  Array.sub buf.instrs 0 buf.len

(* [ids] maps every shared variable to its id; a name that is neither
   local nor shared was rejected by the typechecker. *)
let compile_thread ~ids (t : Ast.thread) =
  let buf = new_buf () in
  let locals = Hashtbl.create 8 in
  let next_local = ref 0 in
  let local_slot x =
    match Hashtbl.find_opt locals x with
    | Some i -> Some i
    | None -> None
  in
  let declare_local x =
    match Hashtbl.find_opt locals x with
    | Some i -> i
    | None ->
        let i = !next_local in
        incr next_local;
        Hashtbl.add locals x i;
        i
  in
  let rec compile_expr = function
    | Ast.Int n -> emit buf (Push n)
    | Ast.Var x -> (
        match local_slot x with
        | Some i -> emit buf (Load_local i)
        | None -> emit buf (Load_global (x, Hashtbl.find ids x)))
    | Ast.Unop (op, e) ->
        compile_expr e;
        emit buf (Prim1 op)
    | Ast.Binop (Ast.And, a, b) ->
        (* a && b:   [a]; jz F; [b]; jz F; push 1; jmp E; F: push 0; E: *)
        compile_expr a;
        let jz1 = emit_patchable buf in
        compile_expr b;
        let jz2 = emit_patchable buf in
        emit buf (Push 1);
        let jend = emit_patchable buf in
        let lfalse = here buf in
        emit buf (Push 0);
        let lend = here buf in
        patch buf jz1 (Jump_if_zero lfalse);
        patch buf jz2 (Jump_if_zero lfalse);
        patch buf jend (Jump lend)
    | Ast.Binop (Ast.Or, a, b) ->
        compile_expr a;
        let jnz1 = emit_patchable buf in
        compile_expr b;
        let jnz2 = emit_patchable buf in
        emit buf (Push 0);
        let jend = emit_patchable buf in
        let ltrue = here buf in
        emit buf (Push 1);
        let lend = here buf in
        patch buf jnz1 (Jump_if_nonzero ltrue);
        patch buf jnz2 (Jump_if_nonzero ltrue);
        patch buf jend (Jump lend)
    | Ast.Binop (op, a, b) ->
        compile_expr a;
        compile_expr b;
        emit buf (Prim op)
    | Ast.Choose es ->
        (* choose(e1..ek): Choose_jump [L1..Lk]; Li: [ei]; jmp E *)
        let choose_at = emit_patchable buf in
        let branches =
          List.map
            (fun e ->
              let entry = here buf in
              compile_expr e;
              let jend = emit_patchable buf in
              (entry, jend))
            es
        in
        let lend = here buf in
        List.iter (fun (_, jend) -> patch buf jend (Jump lend)) branches;
        patch buf choose_at (Choose_jump (List.map fst branches))
  in
  let store_var x =
    match local_slot x with
    | Some i -> emit buf (Store_local i)
    | None -> emit buf (Store_global (x, Hashtbl.find ids x))
  in
  let rec compile_stmt = function
    | Ast.Skip -> ()
    | Ast.Nop k ->
        for _ = 1 to k do
          emit buf Internal
        done
    | Ast.Assign (x, e) ->
        compile_expr e;
        store_var x
    | Ast.Local_decl (x, e) ->
        compile_expr e;
        let i = declare_local x in
        emit buf (Store_local i)
    | Ast.Seq ss -> List.iter compile_stmt ss
    | Ast.If (c, a, Ast.Skip) ->
        compile_expr c;
        let jz = emit_patchable buf in
        compile_stmt a;
        patch buf jz (Jump_if_zero (here buf))
    | Ast.If (c, a, b) ->
        compile_expr c;
        let jz = emit_patchable buf in
        compile_stmt a;
        let jend = emit_patchable buf in
        let lelse = here buf in
        compile_stmt b;
        patch buf jz (Jump_if_zero lelse);
        patch buf jend (Jump (here buf))
    | Ast.While (c, body) ->
        let lcond = here buf in
        compile_expr c;
        let jz = emit_patchable buf in
        compile_stmt body;
        emit buf (Jump lcond);
        patch buf jz (Jump_if_zero (here buf))
    | Ast.Lock l -> emit buf (Acquire l)
    | Ast.Unlock l -> emit buf (Release l)
    | Ast.Sync (l, body) ->
        emit buf (Acquire l);
        compile_stmt body;
        emit buf (Release l)
    | Ast.Wait c -> emit buf (Wait_cond c)
    | Ast.Notify c -> emit buf (Notify_cond c)
    | Ast.Spawn _ | Ast.Join _ ->
        (* Desugar runs first; residual dynamic statements are a bug. *)
        assert false
  in
  compile_stmt t.body;
  (finish buf, !next_local)

let compile (p : Ast.program) =
  Typecheck.check_exn p;
  let p = Desugar.desugar p in
  let vars = Array.of_list (Typecheck.shared_vars p) in
  let ids = Hashtbl.create (Array.length vars) in
  Array.iteri (fun id x -> Hashtbl.add ids x id) vars;
  let compiled = List.map (compile_thread ~ids) p.threads in
  let image =
    { thread_names = Array.of_list (List.map (fun t -> t.Ast.tname) p.threads);
      code = Array.of_list (List.map fst compiled);
      nlocals = Array.of_list (List.map snd compiled);
      shared_init = p.shared;
      vars;
      instrumented = false }
  in
  (match validate image with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Compile: produced invalid image: " ^ msg));
  image

let compile_string src = compile (Parser.parse_program src)
