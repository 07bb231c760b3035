(** Tool configuration for the end-to-end pipeline. *)

type channel_model =
  | In_order
  | Shuffled of int  (** seed *)
  | Bounded of int * int  (** seed, window *)

(** What the streaming ingestion path ({!Stream}, {!Driver}, [serve])
    does with a malformed frame. *)
type recovery =
  | Fail  (** abort on the first decode error (default) *)
  | Skip  (** resynchronize on the next frame, count the loss *)
  | Quarantine
      (** like [Skip], but also preserve the raw skipped bytes for
          offline inspection *)

type t = {
  sched : Tml.Sched.t;
  fuel : int;  (** observable-step budget for the monitored run *)
  channel : channel_model;  (** delivery model between program and observer *)
  metrics : string option;
  (** where {!Pipeline.with_telemetry} dumps the metrics registry after
      the run: a path ([.json] selects the JSON exporter) or ["-"] for
      stdout; [None] (default) leaves telemetry off *)
  trace : string option;
  (** Chrome-trace span stream destination (path or ["-"]); [None]
      (default) disables tracing *)
  engines : Predict.Engine.kind list;
  (** prediction engines the observer side runs ([--engine]); default
      [[Lattice]], the historical behaviour *)
}

val default : unit -> t
(** Round-robin schedule, [fuel = 100_000], in-order delivery. *)

val with_sched : Tml.Sched.t -> t -> t
val with_seed : int -> t -> t
(** Replaces the scheduler by [Tml.Sched.random ~seed]. *)

val with_channel : channel_model -> t -> t

val with_metrics : string option -> t -> t
val with_trace : string option -> t -> t
