(** The metrics registry: named counters, gauges, log2-bucket histograms
    and bounded series, recordable from any domain.

    {2 Zero overhead when off}

    Recording is globally gated by {!enabled}; the intended call shape at
    an instrumentation site is

    {[ if Metrics.enabled () then Metrics.incr my_counter ]}

    which costs a single atomic load and branch when telemetry is off —
    no closure is allocated and no registry lookup happens on the hot
    path.  Metric handles are created once, at module initialization
    time or when a subsystem is constructed, never per event.

    {2 Concurrency}

    Counter, gauge and histogram updates are [Atomic]-backed and safe
    from concurrently running domains.
    Series are mutex-protected.  Handle creation ({!counter} etc.) is
    also thread-safe, but cheap only because it is expected to be rare;
    keep it out of per-event code. *)

type counter
type gauge
type histogram
type series
type window

val enabled : unit -> bool
val enable : unit -> unit

val deep_enabled : unit -> bool
(** The deep diagnostics tier: per-level and per-intern sites inside
    the lattice engine gate on this instead of {!enabled}.  Always
    false when {!enabled} is, so a single load is the whole hot-path
    branch. *)

val enable_deep : unit -> unit
(** Turn on both tiers ([--metrics]: an explicit profiling request).
    {!enable} alone turns on only the operational tier — cheap
    counters, gauges, windows and histograms recorded per session or
    per tick, the ones a serving daemon keeps live ([--live-metrics])
    under the E21 overhead gate. *)

val disable : unit -> unit
(** Turns off both tiers. *)

(** {1 Handles} — get-or-create by name.
    @raise Invalid_argument if the name is already registered as a
    different metric kind. *)

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

val series : ?cap:int -> string -> series
(** A bounded append-only sequence of integers (default [cap] 4096);
    pushes past the cap are counted but dropped.  Used for per-level
    records whose order matters (frontier sizes by lattice level). *)

val window : ?slots:int -> ?width:float -> string -> window
(** A rolling-rate window: a fixed ring of [slots] time slots (default
    64), each [width] seconds wide (default 1.0), holding the sum of
    the deltas recorded during that slot.  Stale slots are zeroed
    lazily on overwrite, so idle time costs nothing.  With the
    defaults the ring remembers the last ~64 s, enough for 1s/10s/60s
    rates.
    @raise Invalid_argument if [slots < 1] or [width <= 0]. *)

(** {1 Recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val set_counter : counter -> int -> unit
(** Overwrite the counter's value.  For mirroring an externally
    maintained monotone count (the serve control-plane counters are
    synced into the registry every tick); not for hot-path use. *)

val set : gauge -> int -> unit
val set_max : gauge -> int -> unit
(** Monotone update: keep the maximum of the current and given value. *)

val gauge_value : gauge -> int

val observe : histogram -> int -> unit
(** Values [<= 0] land in bucket 0; a positive [v] lands in the bucket
    [\[2^(k-1), 2^k)] with [k = floor(log2 v) + 1]. *)

val hist_count : histogram -> int
val hist_sum : histogram -> int

val hist_bucket : histogram -> int -> int
(** [hist_bucket h k] is the count in bucket [k] (see {!observe}). *)

val nbuckets : int
(** Number of histogram buckets (63: bucket 0 plus one per power of 2). *)

val bucket_bounds : int -> int * int
(** [bucket_bounds k] is the value range [(lo, hi)] of bucket [k]:
    [(0, 0)] for bucket 0, otherwise [(2^(k-1), 2^k)] with [hi]
    exclusive. *)

val hist_quantile : histogram -> float -> float
(** [hist_quantile h q] estimates the [q]-quantile ([0 <= q <= 1]) of
    the observed values by linear interpolation inside the log2 bucket
    containing the target rank.  Returns [0.] on an empty histogram;
    the top bucket's upper edge is clamped to the observed max, so the
    estimate never exceeds the largest observed value.  Monotone in
    [q]. *)

val push : series -> int -> unit

val window_add : window -> now:float -> int -> unit
(** Record [n] deltas at time [now] (seconds; negative clamps to 0).
    Out-of-order timestamps within the retained range land in their
    own slot. *)

val window_rate : window -> now:float -> span:float -> float
(** The deltas recorded in the last [ceil (span / width)] slots up to
    and including the slot containing [now], divided by the effective
    span ([ceil (span / width) * width], clamped to the ring size),
    i.e. the average per-second rate over the window.  [rate * span]
    is the sum of the pushed deltas whenever [span] is a multiple of
    the slot width and every push lies inside it (the qcheck law in
    the test suite). *)

(** {1 Registry} *)

type any =
  | Any_counter of counter
  | Any_gauge of gauge
  | Any_histogram of histogram
  | Any_series of series
  | Any_window of window

val all : unit -> (string * any) list
(** Every registered metric with its name, sorted by name — the
    iteration hook for exporters ({!Expo}). *)

val reset : unit -> unit
(** Zero every registered metric's value (handles stay valid). *)

val to_text : unit -> string
(** Human-readable dump, one metric per line, sorted by name.  Metrics
    that were never touched since the last {!reset} are omitted. *)

val to_text_filtered : (string -> bool) -> string
(** {!to_text} restricted to the metrics whose name satisfies the
    predicate — the rollup exporter of the serve daemon's control
    socket, which returns only its own [serve.*] / [stream.*] slices
    instead of the whole registry. *)

val to_json : unit -> string
(** The same dump as a JSON object keyed by metric kind. *)
