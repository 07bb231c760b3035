open Bytecode

let instrument image =
  if image.instrumented then invalid_arg "Instrument: image already instrumented";
  (* The dummy variables of Section 3.1 get the ids after the program's
     shared variables, in order of first appearance. *)
  let ids = Hashtbl.create 16 in
  let extra = ref [] in
  let next = ref (Array.length image.vars) in
  let dummy x =
    match Hashtbl.find_opt ids x with
    | Some id -> id
    | None ->
        let id = !next in
        incr next;
        Hashtbl.add ids x id;
        extra := x :: !extra;
        id
  in
  let instrument_instr = function
    | Load_global (x, id) -> Instr_load (x, id)
    | Store_global (x, id) -> Instr_store (x, id)
    | Acquire l -> Instr_acquire (l, dummy (Trace.Types.lock_var l))
    | Release l -> Instr_release (l, dummy (Trace.Types.lock_var l))
    | Wait_cond c -> Instr_wait (c, dummy (Trace.Types.notify_var c))
    | Notify_cond c -> Instr_notify (c, dummy (Trace.Types.notify_var c))
    | i -> i
  in
  let code = Array.map (Array.map instrument_instr) image.code in
  let vars = Array.append image.vars (Array.of_list (List.rev !extra)) in
  let instrumented = { image with code; vars; instrumented = true } in
  (match validate instrumented with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Instrument: produced invalid image: " ^ msg));
  instrumented

let instrument_program p = instrument (Compile.compile p)

let sync_variables image =
  let module Sset = Set.Make (String) in
  let add acc = function
    | Acquire l | Release l | Instr_acquire (l, _) | Instr_release (l, _) ->
        Sset.add (Trace.Types.lock_var l) acc
    | Wait_cond c | Notify_cond c | Instr_wait (c, _) | Instr_notify (c, _) ->
        Sset.add (Trace.Types.notify_var c) acc
    | _ -> acc
  in
  Array.fold_left (Array.fold_left add) Sset.empty image.code |> Sset.elements
