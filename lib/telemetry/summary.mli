(** Trace replay: parse a span trace written by {!Span} back into
    per-span-name aggregates — the engine of [jmpax stats].

    The parser handles exactly the writer's own line-oriented flavour of
    the Chrome trace format (an optional opening ["["], one event object
    per line, optional trailing commas); it is not a general JSON
    reader. *)

type agg = {
  name : string;
  count : int;  (** completed begin/end pairs *)
  total_us : float;
  min_us : float;
  max_us : float;
}

type t = {
  events : int;  (** event lines parsed *)
  aggs : agg list;  (** sorted by total time, descending *)
  instants : (string * int) list;  (** instant-marker counts by name *)
  unmatched_ends : int;  (** end events with no open begin of that id *)
  unclosed_begins : int;  (** begins never closed (per-domain stacks) *)
  max_depth : int;  (** deepest simultaneous span nesting seen *)
}

val of_file : string -> (t, string) result

val well_formed : t -> bool
(** Every end matched a begin and every begin was closed. *)

val pp : Format.formatter -> t -> unit
(** The [jmpax stats] summary table. *)
