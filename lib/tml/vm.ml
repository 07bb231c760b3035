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
   owner's reentrant acquisitions. *)
type t = {
  image : Bytecode.image;
  sched : Sched.t;
  globals : (Types.var, Types.value) Hashtbl.t;
  lock_at : int array array;
  lock_owner : Types.tid array;
  lock_depth : int array;
  threads : thread_state array;
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
        | Wait_cond c | Instr_wait c -> ts.status <- Waiting c
        | _ -> ());
        continue := false
    | instr ->
        decr budget;
        if !budget < 0 then raise (Vm_error (tid, "silent instruction budget exceeded"));
        exec_silent t tid ts instr
  done

and exec_silent t tid ts instr =
  let pop () =
    match ts.stack with
    | v :: rest ->
        ts.stack <- rest;
        v
    | [] -> raise (Vm_error (tid, "stack underflow"))
  in
  let push v = ts.stack <- v :: ts.stack in
  match instr with
  | Push n ->
      push n;
      ts.pc <- ts.pc + 1
  | Pop ->
      ignore (pop ());
      ts.pc <- ts.pc + 1
  | Load_local i ->
      push ts.locals.(i);
      ts.pc <- ts.pc + 1
  | Store_local i ->
      ts.locals.(i) <- pop ();
      ts.pc <- ts.pc + 1
  | Prim op ->
      let b = pop () in
      let a = pop () in
      push (apply_binop tid op a b);
      ts.pc <- ts.pc + 1
  | Prim1 op ->
      let a = pop () in
      push (match op with Ast.Neg -> -a | Ast.Not -> if a = 0 then 1 else 0);
      ts.pc <- ts.pc + 1
  | Jump k -> ts.pc <- k
  | Jump_if_zero k ->
      let v = pop () in
      ts.pc <- (if v = 0 then k else ts.pc + 1)
  | Jump_if_nonzero k ->
      let v = pop () in
      ts.pc <- (if v <> 0 then k else ts.pc + 1)
  | Choose_jump targets ->
      let c = Sched.choose t.sched (List.length targets) in
      ts.pc <- List.nth targets c
  | _ -> assert false

let create ?clock ?(relevance = Mvc.Relevance.all_writes) ?sink ~sched image =
  (match Bytecode.validate image with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Vm.create: invalid image: " ^ msg));
  let globals = Hashtbl.create 16 in
  List.iter (fun (x, v) -> Hashtbl.replace globals x v) image.shared_init;
  let emitter =
    if image.instrumented then
      Some
        (Mvc.Emitter.create ?clock ~nthreads:(nthreads image) ~init:image.shared_init
           ~relevance ?sink ())
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
        | Acquire l | Instr_acquire l | Release l | Instr_release l -> (
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
            lock_depth = Array.make nlocks 0; threads; emitter; steps = 0; error = None } in
  (* Settle every thread so that enabledness is decidable by inspection. *)
  (try Array.iteri (fun tid _ -> settle t tid) threads
   with Vm_error (tid, message) -> t.error <- Some (tid, message));
  t

let read_global t x =
  match Hashtbl.find_opt t.globals x with Some v -> v | None -> 0

let global_value = read_global

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

(* One descending scan, so the list comes out ascending. *)
let runnable t =
  if t.error <> None then []
  else begin
    let acc = ref [] in
    for tid = Array.length t.threads - 1 downto 0 do
      if thread_runnable t tid then acc := tid :: !acc
    done;
    !acc
  end

(* [finished] given the current [runnable t]. *)
let finished_with t runnable =
  match t.error with
  | Some (tid, message) -> Some (Runtime_error { tid; message })
  | None ->
      if runnable <> [] then None
      else if Array.for_all (fun ts -> ts.status = Halted) t.threads then Some Completed
      else
        Some
          (Deadlocked
             (Array.to_list (Array.mapi (fun tid ts -> (tid, ts)) t.threads)
             |> List.filter (fun (_, ts) -> ts.status <> Halted)
             |> List.map fst))

let finished t = finished_with t (runnable t)

let emit_internal t tid =
  match t.emitter with Some e -> Mvc.Emitter.on_internal e tid | None -> ()

let emit_read t tid x v =
  match t.emitter with Some e -> Mvc.Emitter.on_read e tid x v | None -> ()

let emit_write t tid x v =
  match t.emitter with Some e -> Mvc.Emitter.on_write e tid x v | None -> ()

let do_acquire t tid ts l ~emit =
  let id = t.lock_at.(tid).(ts.pc) in
  assert (t.lock_owner.(id) < 0 || t.lock_owner.(id) = tid);
  t.lock_owner.(id) <- tid;
  t.lock_depth.(id) <- t.lock_depth.(id) + 1;
  if emit then emit_write t tid (Types.lock_var l) 1

let do_release t tid ts l ~emit =
  let id = t.lock_at.(tid).(ts.pc) in
  if t.lock_owner.(id) <> tid then raise (Vm_error (tid, "release of a lock not held: " ^ l));
  let depth = t.lock_depth.(id) - 1 in
  t.lock_depth.(id) <- depth;
  if depth = 0 then t.lock_owner.(id) <- -1;
  if emit then emit_write t tid (Types.lock_var l) 0

let do_notify t tid c ~emit =
  if emit then emit_write t tid (Types.notify_var c) 1;
  Array.iter
    (fun ts -> match ts.status with Waiting c' when c' = c -> ts.status <- Waking c | _ -> ())
    t.threads

let step_body t tid =
  if t.error <> None || tid < 0 || tid >= Array.length t.threads
     || not (thread_runnable t tid)
  then
    invalid_arg (Printf.sprintf "Vm.step: thread %d is not runnable" tid);
  let ts = t.threads.(tid) in
  t.steps <- t.steps + 1;
  if M.enabled () then M.incr m_steps;
  try
    (match ts.status with
    | Waking c ->
        (* Wake completion: the notified thread writes the dummy variable
           after notification (paper, Section 3.1). *)
        (match t.image.code.(tid).(ts.pc) with
        | Instr_wait _ -> emit_write t tid (Types.notify_var c) 1
        | Wait_cond _ -> ()
        | _ -> assert false);
        ts.status <- Ready;
        ts.pc <- ts.pc + 1
    | Ready -> (
        let pop () =
          match ts.stack with
          | v :: rest ->
              ts.stack <- rest;
              v
          | [] -> raise (Vm_error (tid, "stack underflow"))
        in
        match t.image.code.(tid).(ts.pc) with
        | Internal ->
            emit_internal t tid;
            ts.pc <- ts.pc + 1
        | Load_global x ->
            ts.stack <- read_global t x :: ts.stack;
            ts.pc <- ts.pc + 1
        | Instr_load x ->
            let v = read_global t x in
            ts.stack <- v :: ts.stack;
            emit_read t tid x v;
            ts.pc <- ts.pc + 1
        | Store_global x ->
            Hashtbl.replace t.globals x (pop ());
            ts.pc <- ts.pc + 1
        | Instr_store x ->
            let v = pop () in
            Hashtbl.replace t.globals x v;
            emit_write t tid x v;
            ts.pc <- ts.pc + 1
        | Acquire l ->
            do_acquire t tid ts l ~emit:false;
            ts.pc <- ts.pc + 1
        | Instr_acquire l ->
            do_acquire t tid ts l ~emit:true;
            ts.pc <- ts.pc + 1
        | Release l ->
            do_release t tid ts l ~emit:false;
            ts.pc <- ts.pc + 1
        | Instr_release l ->
            do_release t tid ts l ~emit:true;
            ts.pc <- ts.pc + 1
        | Notify_cond c ->
            do_notify t tid c ~emit:false;
            ts.pc <- ts.pc + 1
        | Instr_notify c ->
            do_notify t tid c ~emit:true;
            ts.pc <- ts.pc + 1
        | Wait_cond _ | Instr_wait _ | Halt ->
            (* Settling marks these statuses; a Ready thread never rests
               on them. *)
            assert false
        | _ -> assert false)
    | Waiting _ | Halted -> assert false);
    settle t tid
  with Vm_error (tid, message) -> t.error <- Some (tid, message)

let step t tid =
  if Telemetry.Span.enabled () then
    Telemetry.Span.with_ ~name:"vm.step" (fun () -> step_body t tid)
  else step_body t tid

let steps_taken t = t.steps

let final_shared t =
  Hashtbl.fold (fun x v acc -> (x, v) :: acc) t.globals []
  |> List.filter (fun (x, _) -> Types.is_data_var x)
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
    let runnable = runnable t in
    match finished_with t runnable with
    | Some _ -> ()
    | None ->
        if t.steps >= fuel then ()
        else begin
          let tid = Sched.pick t.sched ~runnable in
          step t tid;
          loop ()
        end
  in
  if Telemetry.Span.enabled () then Telemetry.Span.with_ ~name:"vm.run" loop
  else loop ();
  result t

let run_image ?clock ?fuel ?relevance ?sink ~sched image =
  run ?fuel (create ?clock ?relevance ?sink ~sched image)

let run_program ?clock ?fuel ?relevance ~sched program =
  run_image ?clock ?fuel ?relevance ~sched (Instrument.instrument_program program)

let pp_outcome ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Deadlocked tids ->
      Format.fprintf ppf "deadlocked [%s]"
        (String.concat "," (List.map (Printf.sprintf "T%d") tids))
  | Runtime_error { tid; message } -> Format.fprintf ppf "runtime error in T%d: %s" tid message
  | Fuel_exhausted -> Format.pp_print_string ppf "fuel exhausted"
