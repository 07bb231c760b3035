open Trace
open Bytecode
module M = Telemetry.Metrics

let m_steps = M.counter "vm.steps"

type outcome =
  | Completed
  | Deadlocked of Types.tid list
  | Runtime_error of { tid : Types.tid; message : string }
  | Fuel_exhausted

type run_result = {
  outcome : outcome;
  exec : Exec.t option;
  messages : Message.t list;
  final : (Types.var * Types.value) list;
  steps : int;
}

type status = Ready | Waiting of string | Waking of string | Halted

type thread_state = {
  mutable pc : int;
  mutable stack : Types.value list;
  mutable locals : Types.value array;
  mutable status : status;
}

(* Locks are interned at [create]: [lock_at.(tid).(pc)] is the dense id
   of the lock an acquire or release at that pc names, or -1.  Lock [id]
   is free iff [lock_owner.(id) < 0]; [lock_depth.(id)] counts its
   owner's reentrant acquisitions.  Globals are indexed by the image's
   variable ids.  The runnable set is [runnable.(0 .. nrunnable - 1)],
   ascending; a step rebuilds it only when it can have changed (see
   [synchronizes] and [may_block]). *)
type t = {
  image : Bytecode.image;
  sched : Sched.t;
  globals : Types.value array;
  lock_at : int array array;
  lock_owner : Types.tid array;
  lock_depth : int array;
  threads : thread_state array;
  runnable : Types.tid array;
  mutable nrunnable : int;
  emitter : Mvc.Emitter.t option;
  mutable steps : int;
  mutable error : (Types.tid * string) option;
}

(* Cap on silent instructions executed within one settle; a purely local
   infinite loop (e.g. [while (1) { }]) is reported as a runtime error
   rather than hanging the machine. *)
let silent_cap = 10_000_000

exception Vm_error of Types.tid * string

let apply_binop tid op a b =
  match op with
  | Ast.Add -> a + b
  | Ast.Sub -> a - b
  | Ast.Mul -> a * b
  | Ast.Div -> if b = 0 then raise (Vm_error (tid, "division by zero")) else a / b
  | Ast.Mod -> if b = 0 then raise (Vm_error (tid, "modulo by zero")) else a mod b
  | Ast.Eq -> if a = b then 1 else 0
  | Ast.Ne -> if a <> b then 1 else 0
  | Ast.Lt -> if a < b then 1 else 0
  | Ast.Le -> if a <= b then 1 else 0
  | Ast.Gt -> if a > b then 1 else 0
  | Ast.Ge -> if a >= b then 1 else 0
  | Ast.And | Ast.Or -> assert false (* compiled to jumps *)

let pop tid ts =
  match ts.stack with
  | v :: rest ->
      ts.stack <- rest;
      v
  | [] -> raise (Vm_error (tid, "stack underflow"))

let push ts v = ts.stack <- v :: ts.stack

let rec settle t tid =
  let ts = t.threads.(tid) in
  let code = t.image.code.(tid) in
  let budget = ref silent_cap in
  let continue = ref true in
  while !continue do
    match code.(ts.pc) with
    | instr when Bytecode.is_observable instr ->
        (match instr with
        | Halt -> ts.status <- Halted
        | Wait_cond c | Instr_wait (c, _) -> ts.status <- Waiting c
        | _ -> ());
        continue := false
    | instr ->
        decr budget;
        if !budget < 0 then raise (Vm_error (tid, "silent instruction budget exceeded"));
        exec_silent t tid ts instr
  done

and exec_silent t tid ts instr =
  match instr with
  | Push n ->
      push ts n;
      ts.pc <- ts.pc + 1
  | Pop ->
      ignore (pop tid ts);
      ts.pc <- ts.pc + 1
  | Load_local i ->
      push ts ts.locals.(i);
      ts.pc <- ts.pc + 1
  | Store_local i ->
      ts.locals.(i) <- pop tid ts;
      ts.pc <- ts.pc + 1
  | Prim op ->
      let b = pop tid ts in
      let a = pop tid ts in
      push ts (apply_binop tid op a b);
      ts.pc <- ts.pc + 1
  | Prim1 op ->
      let a = pop tid ts in
      push ts (match op with Ast.Neg -> -a | Ast.Not -> if a = 0 then 1 else 0);
      ts.pc <- ts.pc + 1
  | Jump k -> ts.pc <- k
  | Jump_if_zero k ->
      let v = pop tid ts in
      ts.pc <- (if v = 0 then k else ts.pc + 1)
  | Jump_if_nonzero k ->
      let v = pop tid ts in
      ts.pc <- (if v <> 0 then k else ts.pc + 1)
  | Choose_jump targets ->
      let c = Sched.choose t.sched (List.length targets) in
      ts.pc <- List.nth targets c
  | _ -> assert false

let thread_runnable t tid =
  let ts = t.threads.(tid) in
  match ts.status with
  | Halted | Waiting _ -> false
  | Waking _ -> true
  | Ready -> (
      match t.image.code.(tid).(ts.pc) with
      | Acquire _ | Instr_acquire _ ->
          let owner = t.lock_owner.(t.lock_at.(tid).(ts.pc)) in
          owner < 0 || owner = tid
      | _ -> true)

(* The full scan: ascending, empty once an error has occurred. *)
let rebuild_runnable t =
  let n = ref 0 in
  if Option.is_none t.error then
    for tid = 0 to Array.length t.threads - 1 do
      if thread_runnable t tid then begin
        t.runnable.(!n) <- tid;
        incr n
      end
    done;
  t.nrunnable <- !n

let create ?clock ?(relevance = Mvc.Relevance.all_writes) ?sink ~sched image =
  (match Bytecode.validate image with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Vm.create: invalid image: " ^ msg));
  let globals = Array.make (Array.length image.vars) 0 in
  List.iteri (fun id (_, v) -> globals.(id) <- v) image.shared_init;
  let emitter =
    if image.instrumented then
      Some
        (Mvc.Emitter.create ?clock ~vars:image.vars ~nthreads:(nthreads image)
           ~init:image.shared_init ~relevance ?sink ())
    else None
  in
  let threads =
    Array.map
      (fun n -> { pc = 0; stack = []; locals = Array.make n 0; status = Ready })
      image.nlocals
  in
  let ids = Hashtbl.create 8 in
  let lock_at =
    Array.map
      (Array.map (function
        | Acquire l | Instr_acquire (l, _) | Release l | Instr_release (l, _) -> (
            match Hashtbl.find_opt ids l with
            | Some id -> id
            | None ->
                let id = Hashtbl.length ids in
                Hashtbl.add ids l id;
                id)
        | _ -> -1))
      image.code
  in
  let nlocks = Hashtbl.length ids in
  let t = { image; sched; globals; lock_at; lock_owner = Array.make nlocks (-1);
            lock_depth = Array.make nlocks 0; threads;
            runnable = Array.make (Array.length threads) 0; nrunnable = 0; emitter;
            steps = 0; error = None } in
  (* Settle every thread so that enabledness is decidable by inspection. *)
  (try Array.iteri (fun tid _ -> settle t tid) threads
   with Vm_error (tid, message) -> t.error <- Some (tid, message));
  rebuild_runnable t;
  t

let global_value t x =
  let rec find id =
    if id = Array.length t.image.vars then 0
    else if t.image.vars.(id) = x then t.globals.(id)
    else find (id + 1)
  in
  find 0

let runnable t = List.init t.nrunnable (Array.get t.runnable)

let rescan_runnable t =
  if Option.is_some t.error then []
  else List.filter (thread_runnable t) (List.init (Array.length t.threads) Fun.id)

let finished t =
  match t.error with
  | Some (tid, message) -> Some (Runtime_error { tid; message })
  | None ->
      if t.nrunnable > 0 then None
      else if Array.for_all (fun ts -> ts.status = Halted) t.threads then Some Completed
      else
        Some
          (Deadlocked
             (Array.to_list (Array.mapi (fun tid ts -> (tid, ts)) t.threads)
             |> List.filter (fun (_, ts) -> ts.status <> Halted)
             |> List.map fst))

let emit_internal t tid =
  match t.emitter with Some e -> Mvc.Emitter.on_internal e tid | None -> ()

let emit_read t tid id v =
  match t.emitter with Some e -> Mvc.Emitter.on_read_id e tid id v | None -> ()

let emit_write t tid id v =
  match t.emitter with Some e -> Mvc.Emitter.on_write_id e tid id v | None -> ()

(* [var] is the id of the lock's dummy variable, or -1 to emit nothing. *)
let do_acquire t tid ts ~var =
  let id = t.lock_at.(tid).(ts.pc) in
  assert (t.lock_owner.(id) < 0 || t.lock_owner.(id) = tid);
  t.lock_owner.(id) <- tid;
  t.lock_depth.(id) <- t.lock_depth.(id) + 1;
  if var >= 0 then emit_write t tid var 1

let do_release t tid ts l ~var =
  let id = t.lock_at.(tid).(ts.pc) in
  if t.lock_owner.(id) <> tid then raise (Vm_error (tid, "release of a lock not held: " ^ l));
  let depth = t.lock_depth.(id) - 1 in
  t.lock_depth.(id) <- depth;
  if depth = 0 then t.lock_owner.(id) <- -1;
  if var >= 0 then emit_write t tid var 0

let do_notify t tid c ~var =
  if var >= 0 then emit_write t tid var 1;
  Array.iter
    (fun ts -> match ts.status with Waiting c' when c' = c -> ts.status <- Waking c | _ -> ())
    t.threads

(* Whether a step by a thread with this status and instruction can
   change who else is runnable: lock and wait/notify traffic. *)
let synchronizes ts instr =
  match (ts.status, instr) with
  | Waking _, _ -> true
  | Ready, (Acquire _ | Instr_acquire _ | Release _ | Instr_release _ | Notify_cond _
           | Instr_notify _) -> true
  | _ -> false

(* Whether a settled thread may have left the runnable set: it halted,
   waits, or rests on an acquire. *)
let may_block t tid =
  let ts = t.threads.(tid) in
  match ts.status with
  | Halted | Waiting _ -> true
  | Waking _ -> false
  | Ready -> (
      match t.image.code.(tid).(ts.pc) with
      | Acquire _ | Instr_acquire _ -> true
      | _ -> false)

let step_body t tid =
  if Option.is_some t.error || tid < 0 || tid >= Array.length t.threads
     || not (thread_runnable t tid)
  then
    invalid_arg (Printf.sprintf "Vm.step: thread %d is not runnable" tid);
  let ts = t.threads.(tid) in
  t.steps <- t.steps + 1;
  if M.enabled () then M.incr m_steps;
  let instr = t.image.code.(tid).(ts.pc) in
  let changes_runnable = synchronizes ts instr in
  try
    (match ts.status with
    | Waking _ ->
        (* Wake completion: the notified thread writes the dummy variable
           after notification (paper, Section 3.1). *)
        (match instr with
        | Instr_wait (_, var) -> emit_write t tid var 1
        | Wait_cond _ -> ()
        | _ -> assert false);
        ts.status <- Ready;
        ts.pc <- ts.pc + 1
    | Ready -> (
        match instr with
        | Internal ->
            emit_internal t tid;
            ts.pc <- ts.pc + 1
        | Load_global (_, id) ->
            push ts t.globals.(id);
            ts.pc <- ts.pc + 1
        | Instr_load (_, id) ->
            let v = t.globals.(id) in
            push ts v;
            emit_read t tid id v;
            ts.pc <- ts.pc + 1
        | Store_global (_, id) ->
            t.globals.(id) <- pop tid ts;
            ts.pc <- ts.pc + 1
        | Instr_store (_, id) ->
            let v = pop tid ts in
            t.globals.(id) <- v;
            emit_write t tid id v;
            ts.pc <- ts.pc + 1
        | Acquire _ ->
            do_acquire t tid ts ~var:(-1);
            ts.pc <- ts.pc + 1
        | Instr_acquire (_, var) ->
            do_acquire t tid ts ~var;
            ts.pc <- ts.pc + 1
        | Release l ->
            do_release t tid ts l ~var:(-1);
            ts.pc <- ts.pc + 1
        | Instr_release (l, var) ->
            do_release t tid ts l ~var;
            ts.pc <- ts.pc + 1
        | Notify_cond c ->
            do_notify t tid c ~var:(-1);
            ts.pc <- ts.pc + 1
        | Instr_notify (c, var) ->
            do_notify t tid c ~var;
            ts.pc <- ts.pc + 1
        | Wait_cond _ | Instr_wait _ | Halt ->
            (* Settling marks these statuses; a Ready thread never rests
               on them. *)
            assert false
        | _ -> assert false)
    | Waiting _ | Halted -> assert false);
    settle t tid;
    if changes_runnable || may_block t tid then rebuild_runnable t
  with Vm_error (tid, message) ->
    t.error <- Some (tid, message);
    t.nrunnable <- 0

let step t tid =
  if Telemetry.Span.enabled () then
    Telemetry.Span.with_ ~name:"vm.step" (fun () -> step_body t tid)
  else step_body t tid

let steps_taken t = t.steps

let final_shared t =
  List.filter_map
    (fun (id, x) -> if Types.is_data_var x then Some (x, t.globals.(id)) else None)
    (List.mapi (fun id (x, _) -> (id, x)) t.image.shared_init)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let result t =
  let outcome = match finished t with Some o -> o | None -> Fuel_exhausted in
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
    if t.nrunnable > 0 && t.steps < fuel then begin
      step t (Sched.pick t.sched ~runnable:t.runnable ~count:t.nrunnable);
      loop ()
    end
  in
  if Telemetry.Span.enabled () then Telemetry.Span.with_ ~name:"vm.run" loop
  else loop ();
  result t

let run_image ?clock ?fuel ?relevance ~sched image =
  run ?fuel (create ?clock ?relevance ~sched image)

let run_program ?clock ?fuel ?relevance ~sched program =
  run_image ?clock ?fuel ?relevance ~sched (Instrument.instrument_program program)

let pp_outcome ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Deadlocked tids ->
      Format.fprintf ppf "deadlocked [%s]"
        (String.concat "," (List.map (Printf.sprintf "T%d") tids))
  | Runtime_error { tid; message } -> Format.fprintf ppf "runtime error in T%d: %s" tid message
  | Fuel_exhausted -> Format.pp_print_string ppf "fuel exhausted"
