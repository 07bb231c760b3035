(** Prometheus text exposition (format 0.0.4).

    A small family-grouping builder: samples are added under their
    family name and rendered family-by-family, so the output is
    structurally valid by construction — every [# TYPE] line precedes
    all samples of its family, families are contiguous, histogram
    buckets are cumulative and end with a [+Inf] bucket equal to
    [_count].

    {!of_metrics} maps the {!Metrics} registry onto families:
    counters gain a [_total] suffix, a [_us] name suffix becomes
    [_seconds] with values scaled to base units, log2 histogram
    buckets become [le] bounds at their power-of-two upper edges, and
    windows render as a [_per_second] gauge family labeled
    [window="1s"|"10s"|"60s"].  Bounded series have no
    bounded-cardinality mapping and are skipped.  All names are
    prefixed [jmpax_] and mangled to the exposition charset. *)

type t

val create : unit -> t

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> float -> unit
(** @raise Invalid_argument if the family name is already registered
    with a different type (same for {!gauge} / {!histogram}). *)

val gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> float -> unit

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  buckets:(float * int) list ->
  sum:float ->
  count:int ->
  unit
(** [buckets] are [(upper_bound, cumulative_count)] pairs in ascending
    bound order; the [+Inf] bucket is appended automatically from
    [count]. *)

val to_string : t -> string

val of_metrics : ?keep:(string -> bool) -> ?now:float -> t -> unit
(** Append one family per live registry metric whose (internal) name
    satisfies [keep].  [now] is the clock used to evaluate window
    rates — pass the same clock the windows were fed from. *)
