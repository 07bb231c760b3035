open Trace

type outcome = {
  script : Tml.Sched.script;
  result : Tml.Vm.run_result;
  emitted : Message.t list;
}

type failure =
  | Event_mismatch of { expected : Message.t; got : Message.t }
  | Unexpected_event of Message.t
  | Stuck of { remaining : int }
  | Budget_exhausted

(* Two messages denote the same program event when thread, per-thread
   index, variable and value agree; clocks may differ because the replay
   interleaves irrelevant accesses differently. *)
let same_event (a : Message.t) (b : Message.t) =
  a.tid = b.tid && Message.seq a = Message.seq b && a.var = b.var && a.value = b.value

exception Found of outcome
exception Out_of_budget

(* The target constrains only the order of RELEVANT events; irrelevant
   steps (reads, internal events, synchronization) may interleave
   freely, and the right interleaving is essential — e.g. the paper's
   landing counterexample needs the radio test read BEFORE the radio-off
   write that the run places before the approval. Replay is therefore a
   depth-first search over pick sequences, pruning any prefix whose
   emissions diverge from the target; each node replays its script from
   the initial state ([Tml.Vm.t] is not copyable). *)
let run ?(budget = 100_000) ~relevance ~image target =
  let steps_used = ref 0 in
  let ntarget = List.length target in
  let best_matched = ref 0 in
  let first_mismatch = ref None in
  (* Replays [picks] (in reverse order); returns the VM and how many
     target events matched, or None if emissions diverged. *)
  let replay rev_picks =
    let fresh = Queue.create () in
    let rev_script = ref [] in
    let sched =
      Tml.Sched.make_raw ~name:"replay"
        ~pick_fn:(fun _ _ -> assert false)
        ~choose_fn:(fun _ ->
          rev_script := Tml.Sched.Choice 0 :: !rev_script;
          0)
    in
    let vm = Tml.Vm.create ~relevance ~sink:(fun m -> Queue.add m fresh) ~sched image in
    let rev_emitted = ref [] in
    let rec consume expected =
      match Queue.take_opt fresh with
      | None -> Some expected
      | Some got -> (
          match expected with
          | e :: rest when same_event e got ->
              rev_emitted := got :: !rev_emitted;
              consume rest
          | e :: _ ->
              if !first_mismatch = None then
                first_mismatch := Some (Event_mismatch { expected = e; got });
              None
          | [] ->
              if !first_mismatch = None then first_mismatch := Some (Unexpected_event got);
              None)
    in
    let rec go expected = function
      | [] -> Some (vm, expected, List.rev !rev_script, List.rev !rev_emitted)
      | tid :: rest -> (
          incr steps_used;
          if !steps_used > budget then raise Out_of_budget;
          rev_script := Tml.Sched.Pick tid :: !rev_script;
          Tml.Vm.step vm tid;
          match consume expected with None -> None | Some expected -> go expected rest)
    in
    go target (List.rev rev_picks)
  in
  let rec dfs rev_picks =
    match replay rev_picks with
    | None -> () (* pruned *)
    | Some (vm, expected, script, emitted) ->
        let matched = ntarget - List.length expected in
        if matched > !best_matched then best_matched := matched;
        let runnable = Tml.Vm.runnable vm in
        if expected = [] && runnable = [] then
          raise (Found { script; result = Tml.Vm.result vm; emitted })
        else if runnable = [] then () (* dead end: blocked before finishing *)
        else List.iter (fun tid -> dfs (tid :: rev_picks)) runnable
  in
  try
    dfs [];
    match !first_mismatch with
    | Some f -> Error f
    | None -> Error (Stuck { remaining = ntarget - !best_matched })
  with
  | Found outcome -> Ok outcome
  | Out_of_budget -> Error Budget_exhausted

let replay_counterexample ?budget ~spec ~program (ce : Counterexample.counterexample) =
  let image = Tml.Instrument.instrument_program program in
  let relevance = Mvc.Relevance.writes_of_vars (Pastltl.Formula.vars spec) in
  run ?budget ~relevance ~image ce.Counterexample.run

let pp_failure ppf = function
  | Event_mismatch { expected; got } ->
      Format.fprintf ppf "event mismatch: expected %a, the program emitted %a" Message.pp
        expected Message.pp got
  | Unexpected_event got ->
      Format.fprintf ppf "unexpected relevant event after the run completed: %a"
        Message.pp got
  | Stuck { remaining } ->
      Format.fprintf ppf "stuck with %d target events remaining (blocked threads)"
        remaining
  | Budget_exhausted -> Format.pp_print_string ppf "step budget exhausted"
