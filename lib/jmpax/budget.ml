(* Resource budgets for the online analysis.

   The paper's lattice sweep is worst-case exponential in cuts per
   level; nothing in the §4 two-level bound caps the *width* of a
   level.  This module is the accounting and policy layer that keeps a
   hostile (or merely wide) workload from growing the observer without
   bound: cheap O(1) usage counters over the live engine state, the
   limit the front ends configure from --max-frontier-cuts, and the
   overload policy that decides what happens when it is crossed.  Held
   messages are bounded by --max-buffered instead, which the driver
   checks (backpressure, not a budget). *)

module M = Telemetry.Metrics

let m_frontier_cuts = M.gauge "budget.frontier_cuts"
let m_mem_words = M.gauge "budget.mem_words"
let m_breaches = M.counter "budget.breaches"

(* {1 Policy} *)

type policy = Degrade | Evict | Fail

(* {1 Limits} *)

type limits = { max_frontier_cuts : int option }

let unlimited = { max_frontier_cuts = None }

(* A match, not [l = unlimited]: the stream loops ask once per message,
   and a structural equality is a C call. *)
let is_unlimited = function { max_frontier_cuts = None } -> true | _ -> false

let limits ?max_frontier_cuts () =
  (match max_frontier_cuts with
  | Some k when k < 1 -> invalid_arg "Budget: max_frontier_cuts must be >= 1"
  | _ -> ());
  { max_frontier_cuts }

(* {1 Usage} *)

type usage = {
  frontier_cuts : int;
  mem_words : int;
}

let usage bundle =
  { frontier_cuts = Predict.Engines.frontier_cuts bundle;
    mem_words = Predict.Engines.mem_words bundle }

let observe u =
  if M.enabled () then begin
    M.set_max m_frontier_cuts u.frontier_cuts;
    M.set_max m_mem_words u.mem_words
  end

(* {1 Breaches} *)

type breach = Frontier_cuts of { cuts : int; limit : int }

(* A stable machine-readable token: it ends up inside the
   [degraded(reason=...)] verdict marker and the checkpoint line, so it
   must never contain spaces, commas or parentheses. *)
let breach_reason (Frontier_cuts _) = "frontier_budget"

let breach_message (Frontier_cuts { cuts; limit }) =
  Printf.sprintf "frontier budget exceeded: %d cuts > limit %d" cuts limit

let degradable (Frontier_cuts _) = true

let check limits u =
  let breach =
    match limits.max_frontier_cuts with
    | Some limit when u.frontier_cuts > limit ->
        Some (Frontier_cuts { cuts = u.frontier_cuts; limit })
    | _ -> None
  in
  (match breach with
  | Some _ when M.enabled () -> M.incr m_breaches
  | _ -> ());
  breach

exception Exceeded of breach
(* The fail policy's escape hatch: front ends map it to the documented
   budget exit code. *)
