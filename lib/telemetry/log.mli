(** Structured operational logging.

    One line per lifecycle event, machine-parseable in both formats:

    {v
    ts=1.042 level=info event=accept sid=w1 peer=unix msg="session accepted"
    {"ts":1.042,"level":"info","event":"accept","sid":"w1",...}
    v}

    Global state (level, format, sink, clock) — set once at process
    startup by the CLI from [--log-level] / [--log-format].  The
    library default level is {!Warn} so embedders stay quiet; the
    default sink is [prerr_endline].  Disabled levels cost one atomic
    load and a branch — but note that arguments are evaluated at the
    call site, so hot paths should pre-check {!enabled} before
    formatting anything expensive.

    Timestamps are monotone: seconds since the first log call, or the
    raw value of an injected {!set_clock} (the serve tests inject the
    loop's steppable clock so log output is deterministic). *)

type level = Debug | Info | Warn | Error
type format = Text | Json

val set_level : level -> unit
val level : unit -> level
val set_format : format -> unit

val set_sink : (string -> unit) -> unit
(** Where rendered lines go (default [prerr_endline]).  Called under an
    internal mutex; exceptions from the sink are swallowed. *)

val set_clock : (unit -> float) -> unit
(** Replace the timestamp source (values are printed as-is). *)

val enabled : level -> bool

val log :
  level -> ?sid:string -> event:string -> ?fields:(string * string) list ->
  string -> unit
(** [log l ~event ~fields msg] emits one line at level [l].  [event] is
    the greppable event key ([accept], [evict], [redial], [checkpoint],
    ...); [sid] is the per-session context; [fields] are extra
    [key=value] pairs. *)

val debug :
  ?sid:string -> event:string -> ?fields:(string * string) list -> string -> unit

val info :
  ?sid:string -> event:string -> ?fields:(string * string) list -> string -> unit

val warn :
  ?sid:string -> event:string -> ?fields:(string * string) list -> string -> unit

val error :
  ?sid:string -> event:string -> ?fields:(string * string) list -> string -> unit
