module M = Telemetry.Metrics

let m_levels = M.counter "predict.levels"
let m_violations = M.counter "predict.violations"
let m_monitor_steps = M.counter "predict.monitor_steps"
let m_max_cuts = M.gauge "predict.max_frontier_cuts"
let m_max_entries = M.gauge "predict.max_frontier_entries"

type violation = Online.violation = {
  cut : int array;
  level : int;
  state : Pastltl.State.t;
  monitor_state : Pastltl.Monitor.state;
}

type stats = {
  levels : int;
  max_frontier_cuts : int;
  max_frontier_entries : int;
  monitor_steps : int;
  cuts_visited : int;
}

type report = {
  spec : Pastltl.Formula.t;
  violations : violation list;
  stats : stats;
}

(* The one lattice sweep: an [Online] observer fed the messages in
   whatever order they arrive, then finished.  The retired cuts plus
   the final frontier are every cut visited. *)
let sweep_body ~spec ~nthreads ~init messages =
  let online = Online.create ~nthreads ~init ~spec () in
  Online.feed_all online messages;
  Online.finish online;
  let gc = Online.gc_stats online in
  { spec;
    violations = Online.violations online;
    stats =
      { levels = Online.level online + 1;
        max_frontier_cuts = gc.Online.peak_frontier_cuts;
        max_frontier_entries = gc.Online.peak_frontier_entries;
        monitor_steps = gc.Online.monitor_steps;
        cuts_visited = gc.Online.retired_cuts + Online.frontier_cuts online } }

let sweep ~spec ~nthreads ~init messages =
  let r =
    if Telemetry.Span.enabled () then
      Telemetry.Span.with_ ~name:"predict.analyze" (fun () ->
          sweep_body ~spec ~nthreads ~init messages)
    else sweep_body ~spec ~nthreads ~init messages
  in
  if M.enabled () then begin
    M.add m_levels r.stats.levels;
    M.add m_violations (List.length r.violations);
    M.add m_monitor_steps r.stats.monitor_steps;
    M.set_max m_max_cuts r.stats.max_frontier_cuts;
    M.set_max m_max_entries r.stats.max_frontier_entries
  end;
  r

let violated report = report.violations <> []

let observed_run_verdict ~spec ~init messages =
  let monitor = Pastltl.Monitor.compile spec in
  let state0 = Pastltl.State.of_list init in
  let m0 = Pastltl.Monitor.init monitor state0 in
  let ok = ref (Pastltl.Monitor.verdict monitor m0) in
  let _ =
    List.fold_left
      (fun (state, m) msg ->
        let state' = Observer.Computation.apply state msg in
        let m' = Pastltl.Monitor.step monitor m state' in
        if not (Pastltl.Monitor.verdict monitor m') then ok := false;
        (state', m'))
      (state0, m0) messages
  in
  !ok

let pp_violation ~vars ppf v =
  Format.fprintf ppf "violation at level %d, cut (%s), state %a" v.level
    (String.concat "," (List.map string_of_int (Array.to_list v.cut)))
    (Pastltl.State.pp_values ~vars) v.state

let pp_report ppf r =
  Format.fprintf ppf "@[<v>spec: %a@,%s@,levels=%d max_cuts=%d max_entries=%d \
                      monitor_steps=%d cuts_visited=%d@]"
    Pastltl.Formula.pp r.spec
    (match r.violations with
    | [] -> "no violation predicted"
    | vs -> Printf.sprintf "%d violating (cut, monitor-state) pairs predicted" (List.length vs))
    r.stats.levels r.stats.max_frontier_cuts r.stats.max_frontier_entries
    r.stats.monitor_steps r.stats.cuts_visited
