(** Exhaustive exploration of the schedule space.

    Enumerates {e every} maximal run of a program — all thread
    interleavings at observable-event granularity and all [choose(...)]
    resolutions — by depth-first search over {!Sched.script} prefixes with
    replay from the initial state. This is what the paper's predictive
    analysis is validated against in our tests: a property violation is
    predictable iff some run in this enumeration exhibits it.

    Exploration replays the target once per decision node, so cost is
    quadratic in run length times the number of runs; intended for the
    small programs used in tests and for ground-truthing, not for
    production monitoring (the whole point of the paper is to avoid
    this enumeration of executions). *)

type exploration = {
  runs : (Sched.script * Vm.run_result) list;
      (** every maximal run with the script that reproduces it, in DFS
          discovery order *)
  complete : bool;  (** false when [max_runs] truncated the search *)
}

val explore :
  ?max_runs:int -> run:(sched:Sched.t -> Vm.run_result) -> unit -> exploration
(** Generic driver: [run] must create a fresh machine and drive it with
    the given scheduler (e.g. a closure over {!Vm.run_image} or
    {!Interp.run_program}). [max_runs] defaults to [10_000]. *)

val all_program_runs : ?max_runs:int -> ?fuel:int -> Ast.program -> exploration
(** Compile + instrument + explore. *)

val count_outcomes : exploration -> (Vm.outcome * int) list
(** Multiset of outcomes over all runs (outcomes compared structurally),
    most frequent first. *)
