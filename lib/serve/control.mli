(** The daemon's control socket: live operational telemetry on demand.

    A client connects, sends one request line, reads the response, and
    the daemon closes.  Requests:

    - [stats] — the rollup: daemon counters, health, rolling event
      rates and latency quantiles (when telemetry is enabled), one line
      per registered session, and the [serve.*]/[stream.*]/[online.*]
      slice of the metrics registry.  Plain [key value] lines followed
      by [session k=v ...] lines, so shell tooling can grep it and
      [jmpax top] can parse it without a JSON reader;
    - [metrics] — the same state in Prometheus text exposition format:
      per-session families labeled [sid="..."] and capped at 64
      sessions (the rest counted in [jmpax_serve_sessions_omitted]),
      plus the latency histogram and rolling rates when telemetry is
      enabled;
    - [health] — one line: [ok], [degraded <detail>] or [draining],
      from the configured thresholds;
    - [ping] — [pong], a liveness probe. *)

(** Daemon-lifetime counters, owned by the event loop.  Kept as plain
    fields (always correct, no telemetry required) and mirrored into
    the [serve.*] metrics registry by {!sync} under the
    one-branch-when-off contract. *)
type counters = {
  mutable accepts : int;
  mutable rejects : int;
  mutable evictions : int;
  mutable disconnects : int;
  mutable resumes : int;
  mutable events_finished : int;
      (** events of sessions already removed from the registry *)
  mutable peak_sessions : int;
}

val fresh_counters : unit -> counters

(** Everything a request handler needs to know about the daemon,
    assembled by the loop per request (and per tick, for {!sync}). *)
type view = {
  v_registry : Registry.t;
  v_counters : counters;
  v_uptime : float;
  v_now : float;  (** the loop's (steppable) clock, for window rates *)
  v_draining : bool;
  v_max_lag : int;
      (** [health] degrades when a session's unconsumed reader bytes
          exceed this; [0] disables the check *)
  v_max_buffered : int;
      (** [health] degrades when a session's out-of-order buffer
          exceeds this; [0] disables the check *)
  v_memory_budget : int option;
      (** the daemon's global [--memory-budget] in bytes; when the
          summed per-session {!mem_bytes} crosses it, [health] reports
          [degraded] naming the hungriest session and the loop rejects
          new hellos with [reject server busy] *)
}

val sync :
  registry:Registry.t -> counters:counters -> pending:int -> now:float -> unit
(** Mirror the plain counters into the [serve.*] registry and push the
    events delta into the rolling [serve.events] window.  Called by the
    loop on {e every} tick (and again at the top of every render), so a
    Prometheus scrape and a [stats] rollup can never disagree
    mid-window.  No-op when telemetry is disabled. *)

val mem_bytes : Registry.t -> int
(** Estimated resident analysis state of every registered session
    (O(sessions): each term is an O(1) counter read) — the quantity the
    global [--memory-budget] bounds. *)

val health : view -> string * string
(** [(status, detail)] with status [ok], [degraded] or [draining];
    [detail] names the first offending session when degraded.  A
    crossed global memory budget wins over per-session thresholds and
    names the hungriest session with [reason=memory_budget]. *)

val render : view -> string
(** The [stats] response body. *)

val handle_request : view -> string -> string
(** Map one request line to its response. *)
