open Trace

(* Work items of the small-step machine. The work stack is refined lazily
   so that the classification of the next observable action matches the
   bytecode VM instruction by instruction. *)
type frame =
  | F_stmt of Ast.stmt
  | F_eval of Ast.expr
  | F_assign of string  (* pop one value, store to local or shared *)
  | F_if of Ast.stmt * Ast.stmt  (* pop condition *)
  | F_while of Ast.expr * Ast.stmt  (* pop condition *)
  | F_and_rhs of Ast.expr  (* pop left operand of && *)
  | F_or_rhs of Ast.expr
  | F_normalize  (* pop v, push (v <> 0) as 0/1 *)
  | F_binop of Ast.binop
  | F_unop of Ast.unop
  | F_internal
  | F_acquire of string
  | F_release of string
  | F_wait of string
  | F_notify of string

type status = Ready | Waiting of string | Waking of string | Halted

type thread_state = {
  mutable work : frame list;
  mutable values : Types.value list;
  locals : (string, Types.value) Hashtbl.t;
  mutable status : status;
}

type t = {
  program : Ast.program;
  sched : Sched.t;
  shared : (Types.var, unit) Hashtbl.t;  (* membership: is this name shared? *)
  globals : (Types.var, Types.value) Hashtbl.t;
  locks : (string, Types.tid * int) Hashtbl.t;
  threads : thread_state array;
  emitter : Mvc.Emitter.t option;
  instrumented : bool;
  mutable steps : int;
  mutable error : (Types.tid * string) option;
}

exception Interp_error of Types.tid * string

let silent_cap = 10_000_000

let is_shared t x = Hashtbl.mem t.shared x

(* A frame is observable when processing it produces exactly one event or
   synchronization action; settle stops with such a frame on top. *)
let frame_observable t = function
  | F_eval (Ast.Var x) -> is_shared t x
  | F_assign x -> is_shared t x
  | F_internal | F_acquire _ | F_release _ | F_wait _ | F_notify _ -> true
  | F_stmt _ | F_eval _ | F_if _ | F_while _ | F_and_rhs _ | F_or_rhs _ | F_normalize
  | F_binop _ | F_unop _ -> false

let pop_value tid ts =
  match ts.values with
  | v :: rest ->
      ts.values <- rest;
      v
  | [] -> raise (Interp_error (tid, "value stack underflow"))

let push_value ts v = ts.values <- v :: ts.values

(* Expands one silent frame; mirrors one silent bytecode region. *)
let exec_silent t tid ts frame =
  let push_work fs = ts.work <- fs @ ts.work in
  match frame with
  | F_stmt s -> (
      match s with
      | Ast.Skip -> ()
      | Ast.Nop k -> push_work (List.init k (fun _ -> F_internal))
      | Ast.Assign (x, e) -> push_work [ F_eval e; F_assign x ]
      | Ast.Local_decl (x, e) -> push_work [ F_eval e; F_assign x ]
      | Ast.Seq ss -> push_work (List.map (fun s -> F_stmt s) ss)
      | Ast.If (c, a, b) -> push_work [ F_eval c; F_if (a, b) ]
      | Ast.While (c, body) -> push_work [ F_eval c; F_while (c, body) ]
      | Ast.Lock l -> push_work [ F_acquire l ]
      | Ast.Unlock l -> push_work [ F_release l ]
      | Ast.Sync (l, body) -> push_work [ F_acquire l; F_stmt body; F_release l ]
      | Ast.Wait c -> push_work [ F_wait c ]
      | Ast.Notify c -> push_work [ F_notify c ]
      | Ast.Spawn _ | Ast.Join _ -> assert false (* removed by Desugar *))
  | F_eval e -> (
      match e with
      | Ast.Int n -> push_value ts n
      | Ast.Var x ->
          (* Shared reads are observable and handled in [step]. *)
          assert (not (is_shared t x));
          push_value ts (try Hashtbl.find ts.locals x with Not_found -> 0)
      | Ast.Unop (op, e) -> push_work [ F_eval e; F_unop op ]
      | Ast.Binop (Ast.And, a, b) -> push_work [ F_eval a; F_and_rhs b ]
      | Ast.Binop (Ast.Or, a, b) -> push_work [ F_eval a; F_or_rhs b ]
      | Ast.Binop (op, a, b) -> push_work [ F_eval a; F_eval b; F_binop op ]
      | Ast.Choose es ->
          let c = Sched.choose t.sched (List.length es) in
          push_work [ F_eval (List.nth es c) ])
  | F_assign x ->
      assert (not (is_shared t x));
      Hashtbl.replace ts.locals x (pop_value tid ts)
  | F_if (a, b) ->
      let c = pop_value tid ts in
      ts.work <- F_stmt (if c <> 0 then a else b) :: ts.work
  | F_while (c, body) ->
      let v = pop_value tid ts in
      if v <> 0 then push_work [ F_stmt body; F_eval c; F_while (c, body) ]
  | F_and_rhs b ->
      let va = pop_value tid ts in
      if va = 0 then push_value ts 0 else push_work [ F_eval b; F_normalize ]
  | F_or_rhs b ->
      let va = pop_value tid ts in
      if va <> 0 then push_value ts 1 else push_work [ F_eval b; F_normalize ]
  | F_normalize ->
      let v = pop_value tid ts in
      push_value ts (if v <> 0 then 1 else 0)
  | F_binop op ->
      let b = pop_value tid ts in
      let a = pop_value tid ts in
      let r =
        try Vm.apply_binop tid op a b
        with Vm.Vm_error (tid, msg) -> raise (Interp_error (tid, msg))
      in
      push_value ts r
  | F_unop op ->
      let a = pop_value tid ts in
      push_value ts (match op with Ast.Neg -> -a | Ast.Not -> if a = 0 then 1 else 0)
  | F_internal | F_acquire _ | F_release _ | F_wait _ | F_notify _ -> assert false

let settle t tid =
  let ts = t.threads.(tid) in
  let budget = ref silent_cap in
  let continue = ref true in
  while !continue do
    match ts.work with
    | [] ->
        ts.status <- Halted;
        continue := false
    | frame :: rest ->
        if frame_observable t frame then begin
          (match frame with
          | F_wait c -> ts.status <- Waiting c
          | _ -> ());
          continue := false
        end
        else begin
          decr budget;
          if !budget < 0 then
            raise (Interp_error (tid, "silent instruction budget exceeded"));
          ts.work <- rest;
          exec_silent t tid ts frame
        end
  done

let create ?(relevance = Mvc.Relevance.all_writes) ?sink ~sched ~instrumented program =
  Typecheck.check_exn program;
  let program = Desugar.desugar program in
  let shared = Hashtbl.create 16 in
  let globals = Hashtbl.create 16 in
  List.iter
    (fun (x, v) ->
      Hashtbl.replace shared x ();
      Hashtbl.replace globals x v)
    program.Ast.shared;
  let emitter =
    if instrumented then
      Some
        (Mvc.Emitter.create ~nthreads:(List.length program.Ast.threads)
           ~init:program.Ast.shared ~relevance ?sink ())
    else None
  in
  let threads =
    Array.of_list
      (List.map
         (fun (th : Ast.thread) ->
           { work = [ F_stmt th.body ]; values = []; locals = Hashtbl.create 8;
             status = Ready })
         program.Ast.threads)
  in
  let t = { program; sched; shared; globals; locks = Hashtbl.create 8; threads;
            emitter; instrumented; steps = 0; error = None } in
  (try Array.iteri (fun tid _ -> settle t tid) threads
   with Interp_error (tid, message) -> t.error <- Some (tid, message));
  t

let read_global t x = match Hashtbl.find_opt t.globals x with Some v -> v | None -> 0
let global_value = read_global

let lock_free_or_mine t tid l =
  match Hashtbl.find_opt t.locks l with None -> true | Some (owner, _) -> owner = tid

let thread_runnable t tid =
  let ts = t.threads.(tid) in
  match ts.status with
  | Halted | Waiting _ -> false
  | Waking _ -> true
  | Ready -> (
      match ts.work with
      | F_acquire l :: _ -> lock_free_or_mine t tid l
      | _ -> true)

let runnable t =
  if t.error <> None then []
  else
    Array.to_list (Array.mapi (fun tid _ -> tid) t.threads)
    |> List.filter (thread_runnable t)

let finished t =
  match t.error with
  | Some (tid, message) -> Some (Vm.Runtime_error { tid; message })
  | None ->
      if runnable t <> [] then None
      else if Array.for_all (fun ts -> ts.status = Halted) t.threads then
        Some Vm.Completed
      else
        Some
          (Vm.Deadlocked
             (Array.to_list (Array.mapi (fun tid ts -> (tid, ts)) t.threads)
             |> List.filter (fun (_, ts) -> ts.status <> Halted)
             |> List.map fst))

let emit_internal t tid =
  match t.emitter with Some e -> Mvc.Emitter.on_internal e tid | None -> ()

let emit_read t tid x v =
  match t.emitter with Some e -> Mvc.Emitter.on_read e tid x v | None -> ()

let emit_write t tid x v =
  match t.emitter with Some e -> Mvc.Emitter.on_write e tid x v | None -> ()

let step t tid =
  if not (List.mem tid (runnable t)) then
    invalid_arg (Printf.sprintf "Interp.step: thread %d is not runnable" tid);
  let ts = t.threads.(tid) in
  t.steps <- t.steps + 1;
  let pop_work () =
    match ts.work with
    | f :: rest ->
        ts.work <- rest;
        f
    | [] -> assert false
  in
  try
    (match ts.status with
    | Waking c ->
        (match pop_work () with
        | F_wait _ -> if t.instrumented then emit_write t tid (Types.notify_var c) 1
        | _ -> assert false);
        ts.status <- Ready
    | Ready -> (
        match pop_work () with
        | F_eval (Ast.Var x) ->
            let v = read_global t x in
            push_value ts v;
            if t.instrumented then emit_read t tid x v
        | F_assign x ->
            let v = pop_value tid ts in
            Hashtbl.replace t.globals x v;
            if t.instrumented then emit_write t tid x v
        | F_internal -> emit_internal t tid
        | F_acquire l ->
            (match Hashtbl.find_opt t.locks l with
            | None -> Hashtbl.replace t.locks l (tid, 1)
            | Some (owner, count) ->
                assert (owner = tid);
                Hashtbl.replace t.locks l (tid, count + 1));
            if t.instrumented then emit_write t tid (Types.lock_var l) 1
        | F_release l ->
            (match Hashtbl.find_opt t.locks l with
            | Some (owner, count) when owner = tid ->
                if count = 1 then Hashtbl.remove t.locks l
                else Hashtbl.replace t.locks l (tid, count - 1);
                if t.instrumented then emit_write t tid (Types.lock_var l) 0
            | Some _ | None ->
                raise (Interp_error (tid, "release of a lock not held: " ^ l)))
        | F_notify c ->
            if t.instrumented then emit_write t tid (Types.notify_var c) 1;
            Array.iter
              (fun ts' ->
                match ts'.status with
                | Waiting c' when c' = c -> ts'.status <- Waking c
                | _ -> ())
              t.threads
        | F_wait _ -> assert false (* settling marks Waiting *)
        | _ -> assert false)
    | Waiting _ | Halted -> assert false);
    settle t tid
  with Interp_error (tid, message) -> t.error <- Some (tid, message)

let final_shared t =
  Hashtbl.fold (fun x v acc -> (x, v) :: acc) t.globals []
  |> List.filter (fun (x, _) -> Types.is_data_var x)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let result t : Vm.run_result =
  let outcome = match finished t with Some o -> o | None -> Vm.Fuel_exhausted in
  let exec, messages =
    match t.emitter with
    | Some e ->
        let exec, messages = Mvc.Emitter.finish e in
        (Some exec, messages)
    | None -> (None, [])
  in
  { outcome; exec; messages; final = final_shared t; steps = t.steps }

let run ?(fuel = 100_000) t =
  let rec loop () =
    match finished t with
    | Some _ -> ()
    | None ->
        if t.steps >= fuel then ()
        else begin
          let runnable = Array.of_list (runnable t) in
          let tid = Sched.pick t.sched ~runnable ~count:(Array.length runnable) in
          step t tid;
          loop ()
        end
  in
  loop ();
  result t

let run_program ?fuel ?relevance ~sched program =
  run ?fuel (create ?relevance ~sched ~instrumented:true program)
