module M = Telemetry.Metrics
module Expo = Telemetry.Expo

type counters = {
  mutable accepts : int;
  mutable rejects : int;
  mutable evictions : int;
  mutable disconnects : int;
  mutable resumes : int;
  mutable events_finished : int;
  mutable peak_sessions : int;
}

let fresh_counters () =
  { accepts = 0;
    rejects = 0;
    evictions = 0;
    disconnects = 0;
    resumes = 0;
    events_finished = 0;
    peak_sessions = 0 }

type view = {
  v_registry : Registry.t;
  v_counters : counters;
  v_uptime : float;
  v_now : float;
  v_draining : bool;
  v_max_lag : int;
  v_max_buffered : int;
  v_memory_budget : int option;
}

let state_name = function
  | Session.Handshaking -> "handshaking"
  | Session.Streaming -> "streaming"
  | Session.Disconnected -> "disconnected"
  | Session.Done -> "done"
  | Session.Failed -> "failed"

(* {1 The mirror}

   The plain [counters] record is the source of truth (always correct,
   no telemetry required); these registry handles shadow it so the
   metrics dump, a Prometheus scrape and a [stats] rollup can never
   disagree.  [sync] runs every loop tick {e and} at the top of every
   render, under the one-branch-when-off contract. *)

let m_accepts = M.counter "serve.accepts"
let m_rejects = M.counter "serve.rejects"
let m_evictions = M.counter "serve.evictions"
let m_disconnects = M.counter "serve.disconnects"
let m_resumes = M.counter "serve.resumes"
let m_events_total = M.counter "serve.events_total"
let m_sessions_active = M.gauge "serve.sessions_active"
let m_sessions_peak = M.gauge "serve.sessions_peak"
let m_events_window = M.window "serve.events"

(* Names [sync] owns: rendered straight from [counters] in the
   exposition, and excluded from the generic registry walk so each
   appears exactly once. *)
let mirrored = function
  | "serve.accepts" | "serve.rejects" | "serve.evictions"
  | "serve.disconnects" | "serve.resumes" | "serve.events_total"
  | "serve.sessions_active" | "serve.sessions_peak"
  (* Session.finish's live registry counters; the exposition renders
     these families from the always-correct per-session fold instead. *)
  | "serve.verdicts" | "serve.violations" ->
      true
  | _ -> false

let live_events registry =
  List.fold_left (fun acc s -> acc + Session.events s) 0 (Registry.all registry)

(* Global resident analysis state: the O(1) per-session counters summed
   over the registry — the quantity [--memory-budget] bounds. *)
let mem_bytes registry =
  List.fold_left (fun acc s -> acc + Session.mem_words s) 0 (Registry.all registry)
  * (Sys.word_size / 8)

let degraded_count registry =
  List.fold_left
    (fun acc s -> if Session.degraded s <> None then acc + 1 else acc)
    0 (Registry.all registry)

let events_total ~registry ~counters =
  counters.events_finished + live_events registry

(* The events window remembers the last synced total so each tick
   pushes only the delta.  A smaller total means the counters were
   recreated (a new loop in the same process, as the tests do): re-arm
   without pushing. *)
let window_synced = ref 0

let sync ~registry ~counters ~pending ~now =
  if M.enabled () then begin
    M.set_counter m_accepts counters.accepts;
    M.set_counter m_rejects counters.rejects;
    M.set_counter m_evictions counters.evictions;
    M.set_counter m_disconnects counters.disconnects;
    M.set_counter m_resumes counters.resumes;
    let total = events_total ~registry ~counters in
    M.set_counter m_events_total total;
    M.set m_sessions_active (Registry.connected_count registry + pending);
    M.set m_sessions_peak counters.peak_sessions;
    if total < !window_synced then window_synced := total
    else if total > !window_synced then begin
      M.window_add m_events_window ~now (total - !window_synced);
      window_synced := total
    end
  end

(* {1 Health} *)

let health v =
  if v.v_draining then ("draining", "")
  else begin
    (* Global memory budget first: when the daemon as a whole is over
       its high-water the offender is the hungriest session, whatever
       its individual thresholds say. *)
    let over_budget =
      match v.v_memory_budget with
      | Some budget when mem_bytes v.v_registry > budget -> Some budget
      | _ -> None
    in
    match over_budget with
    | Some budget -> (
        let offender =
          List.fold_left
            (fun acc s ->
              match acc with
              | Some best when Session.mem_words best >= Session.mem_words s ->
                  acc
              | _ -> Some s)
            None (Registry.all v.v_registry)
        in
        match offender with
        | Some s ->
            ( "degraded",
              Printf.sprintf "reason=memory_budget sid=%s mem_bytes=%d budget=%d"
                (Session.id s)
                (Session.mem_words s * (Sys.word_size / 8))
                budget )
        | None ->
            ( "degraded",
              Printf.sprintf "reason=memory_budget mem_bytes=%d budget=%d"
                (mem_bytes v.v_registry) budget ))
    | None -> (
        let offender =
          List.find_opt
            (fun s ->
              (v.v_max_lag > 0 && Session.lag s > v.v_max_lag)
              || (v.v_max_buffered > 0 && Session.buffered s > v.v_max_buffered))
            (Registry.all v.v_registry)
        in
        match offender with
        | None -> ("ok", "")
        | Some s ->
            ( "degraded",
              Printf.sprintf "sid=%s lag=%d buffered=%d" (Session.id s)
                (Session.lag s) (Session.buffered s) ))
  end

let health_reply v =
  match health v with
  | status, "" -> status ^ "\n"
  | status, detail -> status ^ " " ^ detail ^ "\n"

(* {1 stats} *)

let render v =
  sync ~registry:v.v_registry ~counters:v.v_counters ~pending:0 ~now:v.v_now;
  let counters = v.v_counters in
  let buf = Buffer.create 512 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sessions = Registry.all v.v_registry in
  let events_total = events_total ~registry:v.v_registry ~counters in
  let verdicts, violations =
    List.fold_left
      (fun (d, vl) s ->
        match Session.violated s with
        | Some true -> (d + 1, vl + 1)
        | Some false -> (d + 1, vl)
        | None -> (d, vl))
      (0, 0) sessions
  in
  p "jmpax-serve 1\n";
  p "uptime_s %.3f\n" v.v_uptime;
  p "draining %s\n" (if v.v_draining then "yes" else "no");
  p "health %s\n" (fst (health v));
  p "serve.sessions_active %d\n" (Registry.connected_count v.v_registry);
  p "serve.sessions_registered %d\n" (Registry.total v.v_registry);
  p "serve.sessions_peak %d\n" counters.peak_sessions;
  p "serve.max_sessions %d\n" (Registry.max_sessions v.v_registry);
  p "serve.accepts %d\n" counters.accepts;
  p "serve.rejects %d\n" counters.rejects;
  p "serve.evictions %d\n" counters.evictions;
  p "serve.disconnects %d\n" counters.disconnects;
  p "serve.resumes %d\n" counters.resumes;
  p "serve.events_total %d\n" events_total;
  p "serve.verdicts %d\n" verdicts;
  p "serve.violations %d\n" violations;
  p "serve.mem_bytes %d\n" (mem_bytes v.v_registry);
  (match v.v_memory_budget with
  | Some budget -> p "serve.memory_budget %d\n" budget
  | None -> ());
  p "serve.sessions_degraded %d\n" (degraded_count v.v_registry);
  p "serve.throughput_eps %.1f\n"
    (if v.v_uptime > 0.0 then float_of_int events_total /. v.v_uptime else 0.0);
  if M.enabled () then begin
    p "serve.events_rate_1s %.1f\n"
      (M.window_rate m_events_window ~now:v.v_now ~span:1.0);
    p "serve.events_rate_10s %.1f\n"
      (M.window_rate m_events_window ~now:v.v_now ~span:10.0);
    p "serve.events_rate_60s %.1f\n"
      (M.window_rate m_events_window ~now:v.v_now ~span:60.0);
    let h = Session.verdict_latency in
    if M.hist_count h > 0 then begin
      p "serve.latency_p50_us %.0f\n" (M.hist_quantile h 0.50);
      p "serve.latency_p90_us %.0f\n" (M.hist_quantile h 0.90);
      p "serve.latency_p99_us %.0f\n" (M.hist_quantile h 0.99)
    end
  end;
  List.iter
    (fun s ->
      p
        "session id=%s state=%s events=%d level=%d buffered=%d lag=%d \
         skipped=%d checkpoints=%d age=%.1f verdict=%s code=%d cuts=%d \
         causal=%d degraded=%s\n"
        (Session.id s)
        (state_name (Session.state s))
        (Session.events s) (Session.level s) (Session.buffered s)
        (Session.lag s) (Session.skipped s)
        (Session.checkpoints s)
        (v.v_now -. Session.created_at s)
        (match Session.violated s with
        | Some true -> "violation"
        | Some false -> "ok"
        | None -> "-")
        (Session.exit_code s)
        (Session.frontier_cuts s)
        (Session.causal_buffered s)
        (match Session.degraded s with
        | Some d -> d.Predict.Engines.d_reason
        | None -> "no"))
    sessions;
  if M.enabled () then begin
    let keep name =
      let has prefix =
        String.length name >= String.length prefix
        && String.sub name 0 (String.length prefix) = prefix
      in
      has "serve." || has "stream." || has "online." || has "transport."
    in
    Buffer.add_string buf (M.to_text_filtered keep)
  end;
  Buffer.contents buf

(* {1 Prometheus exposition} *)

(* Per-session labeled families are capped: unbounded tenant counts
   must not turn one scrape into an unbounded time-series explosion.
   Sessions beyond the cap (in id order) are counted in
   [jmpax_serve_sessions_omitted]. *)
let session_series_cap = 64

(* The [metrics] response body: Prometheus text exposition.  Daemon
   counters render from the plain counters, so the scrape works with
   telemetry off; the live registry adds the latency histogram and the
   rolling rates when telemetry is on. *)
let prometheus v =
  sync ~registry:v.v_registry ~counters:v.v_counters ~pending:0 ~now:v.v_now;
  let counters = v.v_counters in
  let e = Expo.create () in
  let sessions = Registry.all v.v_registry in
  let events_total = events_total ~registry:v.v_registry ~counters in
  let verdicts, violations =
    List.fold_left
      (fun (d, vl) s ->
        match Session.violated s with
        | Some true -> (d + 1, vl + 1)
        | Some false -> (d + 1, vl)
        | None -> (d, vl))
      (0, 0) sessions
  in
  (* Control-plane families, rendered from the plain counters: correct
     with telemetry off, identical to it when on (the mirror). *)
  let c name ?help x = Expo.counter e ?help name (float_of_int x) in
  let g name ?help x = Expo.gauge e ?help name (float_of_int x) in
  c "jmpax_serve_accepts_total" ~help:"Connections accepted" counters.accepts;
  c "jmpax_serve_rejects_total" ~help:"Connections politely rejected"
    counters.rejects;
  c "jmpax_serve_evictions_total" ~help:"Sessions evicted by the idle sweep"
    counters.evictions;
  c "jmpax_serve_disconnects_total" ~help:"Mid-stream writer disconnects"
    counters.disconnects;
  c "jmpax_serve_resumes_total" ~help:"Session resumes (memory or checkpoint)"
    counters.resumes;
  c "jmpax_serve_events_total" ~help:"Trace events consumed" events_total;
  c "jmpax_serve_verdicts_total" ~help:"Sessions with a verdict" verdicts;
  c "jmpax_serve_violations_total" ~help:"Sessions with a violation verdict"
    violations;
  g "jmpax_serve_sessions_active"
    ~help:"Currently connected sessions"
    (Registry.connected_count v.v_registry);
  g "jmpax_serve_sessions_registered" (Registry.total v.v_registry);
  g "jmpax_serve_sessions_peak" counters.peak_sessions;
  g "jmpax_serve_max_sessions" (Registry.max_sessions v.v_registry);
  Expo.gauge e "jmpax_serve_uptime_seconds" v.v_uptime;
  g "jmpax_serve_draining" (if v.v_draining then 1 else 0);
  let health_code =
    match health v with
    | "ok", _ -> 0
    | "degraded", _ -> 1
    | _ -> 2
  in
  g "jmpax_serve_health"
    ~help:"0 = ok, 1 = degraded, 2 = draining" health_code;
  g "jmpax_serve_mem_bytes"
    ~help:"Resident analysis state across all sessions (estimated)"
    (mem_bytes v.v_registry);
  (match v.v_memory_budget with
  | Some budget ->
      g "jmpax_serve_memory_budget_bytes" ~help:"Configured global budget"
        budget
  | None -> ());
  g "jmpax_serve_sessions_degraded"
    ~help:"Sessions running on degraded (linear-time) engines"
    (degraded_count v.v_registry);
  (* Per-session labeled families, capped. *)
  let shown = ref 0 in
  List.iter
    (fun s ->
      if !shown < session_series_cap then begin
        incr shown;
        let labels = [ ("sid", Session.id s) ] in
        Expo.counter e ~labels "jmpax_serve_session_events_total"
          (float_of_int (Session.events s));
        Expo.gauge e ~labels "jmpax_serve_session_buffered"
          (float_of_int (Session.buffered s));
        Expo.gauge e ~labels "jmpax_serve_session_lag_bytes"
          (float_of_int (Session.lag s));
        Expo.gauge e ~labels "jmpax_serve_session_level"
          (float_of_int (Session.level s));
        Expo.gauge e ~labels "jmpax_serve_session_frontier_cuts"
          (float_of_int (Session.frontier_cuts s));
        Expo.gauge e ~labels "jmpax_serve_session_causal_buffered"
          (float_of_int (Session.causal_buffered s));
        Expo.gauge e ~labels "jmpax_serve_session_degraded"
          (if Session.degraded s <> None then 1.0 else 0.0)
      end)
    sessions;
  g "jmpax_serve_sessions_omitted"
    ~help:"Sessions beyond the per-session series cap"
    (max 0 (List.length sessions - session_series_cap));
  (* The rest of the live registry (latency histogram, events window,
     stream/online slices), minus the names the mirror already
     rendered. *)
  if M.enabled () then begin
    let keep name =
      let has prefix =
        String.length name >= String.length prefix
        && String.sub name 0 (String.length prefix) = prefix
      in
      (has "serve." || has "stream." || has "online." || has "transport.")
      && not (mirrored name)
    in
    Expo.of_metrics ~keep ~now:v.v_now e
  end;
  Expo.to_string e

let handle_request v line =
  match String.trim line with
  | "stats" -> render v
  | "ping" -> "pong\n"
  | "metrics" -> prometheus v
  | "health" -> health_reply v
  | other ->
      Printf.sprintf
        "error unknown command %S (try: stats, metrics, health, ping)\n" other
