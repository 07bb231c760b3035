type exploration = {
  runs : (Sched.script * Vm.run_result) list;
  complete : bool;
}

(* Raised by the probing scheduler when the replayed prefix is exhausted
   and a new decision is needed; carries every alternative. *)
exception Frontier of Sched.decision list

let probing_sched prefix =
  let remaining = ref prefix in
  let next () =
    match !remaining with
    | [] -> None
    | d :: rest ->
        remaining := rest;
        Some d
  in
  let pick_fn runnable count =
    let runnable = List.init count (Array.get runnable) in
    match next () with
    | Some (Sched.Pick tid) ->
        if List.mem tid runnable then tid
        else raise (Sched.Replay_mismatch "explore: pick not runnable")
    | Some (Sched.Choice _) -> raise (Sched.Replay_mismatch "explore: pick expected")
    | None -> raise (Frontier (List.map (fun tid -> Sched.Pick tid) runnable))
  in
  let choose_fn k =
    match next () with
    | Some (Sched.Choice c) ->
        if c >= 0 && c < k then c
        else raise (Sched.Replay_mismatch "explore: choice out of range")
    | Some (Sched.Pick _) -> raise (Sched.Replay_mismatch "explore: choice expected")
    | None -> raise (Frontier (List.init k (fun c -> Sched.Choice c)))
  in
  Sched.make_raw ~name:"probe" ~pick_fn ~choose_fn

let explore ?(max_runs = 10_000) ~run () =
  let results = ref [] in
  let n_runs = ref 0 in
  let truncated = ref false in
  (* DFS stack of script prefixes still to try. *)
  let stack = ref [ [] ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
        stack := rest;
        if !n_runs >= max_runs then truncated := true
        else begin
          match run ~sched:(probing_sched prefix) with
          | result ->
              incr n_runs;
              results := (prefix, result) :: !results
          | exception Frontier alternatives ->
              (* Push in reverse so alternatives explore in order. *)
              List.iter
                (fun d -> stack := (prefix @ [ d ]) :: !stack)
                (List.rev alternatives)
        end
  done;
  { runs = List.rev !results; complete = not !truncated }

let all_runs ?max_runs ?fuel image =
  explore ?max_runs ~run:(fun ~sched -> Vm.run_image ?fuel ~sched image) ()

let all_program_runs ?max_runs ?fuel program =
  let image = Instrument.instrument_program program in
  all_runs ?max_runs ?fuel image

let count_outcomes { runs; _ } =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun (_, r) ->
      let k = r.Vm.outcome in
      Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
    runs;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tally []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
