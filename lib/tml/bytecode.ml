open Trace

type instr =
  | Push of int
  | Pop
  | Load_local of int
  | Store_local of int
  | Prim of Ast.binop
  | Prim1 of Ast.unop
  | Jump of int
  | Jump_if_zero of int
  | Jump_if_nonzero of int
  | Choose_jump of int list
  | Load_global of Types.var * int
  | Store_global of Types.var * int
  | Internal
  | Acquire of string
  | Release of string
  | Wait_cond of string
  | Notify_cond of string
  | Instr_load of Types.var * int
  | Instr_store of Types.var * int
  | Instr_acquire of string * int
  | Instr_release of string * int
  | Instr_wait of string * int
  | Instr_notify of string * int
  | Halt

type image = {
  thread_names : string array;
  code : instr array array;
  nlocals : int array;
  shared_init : (Types.var * Types.value) list;
  vars : Types.var array;
  instrumented : bool;
}

let nthreads image = Array.length image.code

let is_silent = function
  | Push _ | Pop | Load_local _ | Store_local _ | Prim _ | Prim1 _ | Jump _
  | Jump_if_zero _ | Jump_if_nonzero _ | Choose_jump _ -> true
  | Load_global _ | Store_global _ | Internal | Acquire _ | Release _ | Wait_cond _
  | Notify_cond _ | Instr_load _ | Instr_store _ | Instr_acquire _ | Instr_release _
  | Instr_wait _ | Instr_notify _ | Halt -> false

let is_observable i = not (is_silent i)

let is_instrumented_op = function
  | Instr_load _ | Instr_store _ | Instr_acquire _ | Instr_release _ | Instr_wait _
  | Instr_notify _ -> true
  | _ -> false

let is_plain_observable_op = function
  | Load_global _ | Store_global _ | Acquire _ | Release _ | Wait_cond _
  | Notify_cond _ -> true
  | _ -> false

(* One pass over every instruction; the checks are closures built once,
   not per instruction, since every image is validated on creation. *)
let validate image =
  let problems = ref [] in
  let problem fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let n = nthreads image in
  if Array.length image.thread_names <> n then problem "thread_names length mismatch";
  if Array.length image.nlocals <> n then problem "nlocals length mismatch";
  let nvars = Array.length image.vars in
  let check_target t pc len target =
    if target < 0 || target >= len then
      problem "thread %d: pc %d jumps out of range (%d)" t pc target
  in
  let check_var t pc what name id expected =
    if not (id >= 0 && id < nvars && String.equal image.vars.(id) expected) then
      problem "thread %d: pc %d %s %s has a bad variable id %d" t pc what name id
  in
  for t = 0 to n - 1 do
    let code = image.code.(t) in
    let len = Array.length code in
    if len = 0 || code.(len - 1) <> Halt then problem "thread %d: code not Halt-terminated" t;
    for pc = 0 to len - 1 do
      let instr = code.(pc) in
      (match instr with
      | Jump k | Jump_if_zero k | Jump_if_nonzero k -> check_target t pc len k
      | Choose_jump ks ->
          if ks = [] then problem "thread %d: pc %d empty choose" t pc;
          List.iter (check_target t pc len) ks
      | Load_local i | Store_local i ->
          if i < 0 || (t < Array.length image.nlocals && i >= image.nlocals.(t)) then
            problem "thread %d: pc %d local slot %d out of range" t pc i
      | Load_global (x, id) | Store_global (x, id) | Instr_load (x, id)
      | Instr_store (x, id) ->
          check_var t pc "variable" x id x
      | Instr_acquire (l, id) | Instr_release (l, id) ->
          check_var t pc "lock" l id (Types.lock_var l)
      | Instr_wait (c, id) | Instr_notify (c, id) ->
          check_var t pc "condition" c id (Types.notify_var c)
      | _ -> ());
      if is_instrumented_op instr && not image.instrumented then
        problem "thread %d: pc %d instrumented opcode in plain image" t pc;
      if is_plain_observable_op instr && image.instrumented then
        problem "thread %d: pc %d un-instrumented opcode in instrumented image" t pc
    done
  done;
  List.iteri
    (fun id (x, _) ->
      if id >= Array.length image.vars || image.vars.(id) <> x then
        problem "shared variable %s does not have id %d" x id)
    image.shared_init;
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " (List.rev ps))

let pp_instr ppf = function
  | Push n -> Format.fprintf ppf "push %d" n
  | Pop -> Format.pp_print_string ppf "pop"
  | Load_local i -> Format.fprintf ppf "loadl %d" i
  | Store_local i -> Format.fprintf ppf "storel %d" i
  | Prim op -> Format.fprintf ppf "prim %a" Pretty.pp_binop op
  | Prim1 op -> Format.fprintf ppf "prim1 %a" Pretty.pp_unop op
  | Jump k -> Format.fprintf ppf "jmp %d" k
  | Jump_if_zero k -> Format.fprintf ppf "jz %d" k
  | Jump_if_nonzero k -> Format.fprintf ppf "jnz %d" k
  | Choose_jump ks ->
      Format.fprintf ppf "choose [%s]" (String.concat ";" (List.map string_of_int ks))
  | Load_global (x, _) -> Format.fprintf ppf "loadg %s" x
  | Store_global (x, _) -> Format.fprintf ppf "storeg %s" x
  | Internal -> Format.pp_print_string ppf "internal"
  | Acquire l -> Format.fprintf ppf "acquire %s" l
  | Release l -> Format.fprintf ppf "release %s" l
  | Wait_cond c -> Format.fprintf ppf "wait %s" c
  | Notify_cond c -> Format.fprintf ppf "notify %s" c
  | Instr_load (x, _) -> Format.fprintf ppf "loadg! %s" x
  | Instr_store (x, _) -> Format.fprintf ppf "storeg! %s" x
  | Instr_acquire (l, _) -> Format.fprintf ppf "acquire! %s" l
  | Instr_release (l, _) -> Format.fprintf ppf "release! %s" l
  | Instr_wait (c, _) -> Format.fprintf ppf "wait! %s" c
  | Instr_notify (c, _) -> Format.fprintf ppf "notify! %s" c
  | Halt -> Format.pp_print_string ppf "halt"

let pp_image ppf image =
  Format.fprintf ppf "@[<v>image (%d threads%s)@,"
    (nthreads image)
    (if image.instrumented then ", instrumented" else "");
  Array.iteri
    (fun t code ->
      Format.fprintf ppf "thread %s (%d locals):@," image.thread_names.(t) image.nlocals.(t);
      Array.iteri (fun pc i -> Format.fprintf ppf "  %3d: %a@," pc pp_instr i) code)
    image.code;
  Format.fprintf ppf "@]"
