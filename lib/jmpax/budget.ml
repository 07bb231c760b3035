(* Resource budgets for the online analysis.

   The paper's lattice sweep is worst-case exponential in cuts per
   level; nothing in the §4 two-level bound caps the *width* of a
   level.  This module is the accounting and policy layer that keeps a
   hostile (or merely wide) workload from growing the observer without
   bound: cheap O(1) usage counters over the live engine state, limits
   the front ends configure from --max-frontier-cuts /
   --max-causal-buffered, and the overload policy that decides what
   happens when a limit is crossed. *)

module M = Telemetry.Metrics

let m_frontier_cuts = M.gauge "budget.frontier_cuts"
let m_causal_buffered = M.gauge "budget.causal_buffered"
let m_mem_words = M.gauge "budget.mem_words"
let m_breaches = M.counter "budget.breaches"

(* {1 Policy} *)

type policy = Degrade | Evict | Fail

let policy_of_string = function
  | "degrade" -> Some Degrade
  | "evict" -> Some Evict
  | "fail" -> Some Fail
  | _ -> None

let policy_to_string = function
  | Degrade -> "degrade"
  | Evict -> "evict"
  | Fail -> "fail"

(* {1 Limits} *)

type limits = {
  max_frontier_cuts : int option;
  max_causal_buffered : int option;
}

let unlimited = { max_frontier_cuts = None; max_causal_buffered = None }

(* A match, not [l = unlimited]: the stream loops ask once per message,
   and a structural equality is a C call. *)
let is_unlimited = function
  | { max_frontier_cuts = None; max_causal_buffered = None } -> true
  | _ -> false

let check_limit what = function
  | Some k when k < 1 ->
      invalid_arg (Printf.sprintf "Budget: %s must be >= 1" what)
  | _ -> ()

let limits ?max_frontier_cuts ?max_causal_buffered () =
  check_limit "max_frontier_cuts" max_frontier_cuts;
  check_limit "max_causal_buffered" max_causal_buffered;
  { max_frontier_cuts; max_causal_buffered }

(* {1 Usage} *)

type usage = {
  frontier_cuts : int;
  causal_buffered : int;
  mem_words : int;
}

let usage bundle =
  { frontier_cuts = Predict.Engines.frontier_cuts bundle;
    causal_buffered = Predict.Engines.causal_buffered bundle;
    mem_words = Predict.Engines.mem_words bundle }

let observe u =
  if M.enabled () then begin
    M.set_max m_frontier_cuts u.frontier_cuts;
    M.set_max m_causal_buffered u.causal_buffered;
    M.set_max m_mem_words u.mem_words
  end

(* {1 Breaches} *)

type breach =
  | Frontier_cuts of { cuts : int; limit : int }
  | Causal_buffered of { buffered : int; limit : int }

(* Stable machine-readable tokens: these end up inside the
   [degraded(reason=...)] verdict marker and the checkpoint line, so
   they must never contain spaces, commas or parentheses. *)
let breach_reason = function
  | Frontier_cuts _ -> "frontier_budget"
  | Causal_buffered _ -> "causal_budget"

let breach_message = function
  | Frontier_cuts { cuts; limit } ->
      Printf.sprintf "frontier budget exceeded: %d cuts > limit %d" cuts limit
  | Causal_buffered { buffered; limit } ->
      Printf.sprintf "causal buffer budget exceeded: %d buffered > limit %d"
        buffered limit

(* A frontier breach can be shed by degrading onto the linear-time
   engines; a causal-buffer breach cannot (the buffered messages ARE the
   state the linear engines need), so degrade falls back to the next
   harsher policy for it. *)
let degradable = function
  | Frontier_cuts _ -> true
  | Causal_buffered _ -> false

let check limits u =
  let breach =
    match limits.max_frontier_cuts with
    | Some limit when u.frontier_cuts > limit ->
        Some (Frontier_cuts { cuts = u.frontier_cuts; limit })
    | _ -> (
        match limits.max_causal_buffered with
        | Some limit when u.causal_buffered > limit ->
            Some (Causal_buffered { buffered = u.causal_buffered; limit })
        | _ -> None)
  in
  (match breach with
  | Some _ when M.enabled () -> M.incr m_breaches
  | _ -> ());
  breach

exception Exceeded of breach
(* The fail policy's escape hatch: front ends map it to the documented
   budget exit code. *)
