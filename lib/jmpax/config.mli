(** Tool configuration for the end-to-end pipeline. *)

type channel_model =
  | In_order
  | Shuffled of int  (** seed *)
  | Bounded of int * int  (** seed, window *)

(** What the streaming ingestion path does with a malformed frame. *)
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
  clock : Clock.Spec.backend;  (** Algorithm A clock backend *)
  detect_races : bool;
  detect_deadlocks : bool;
  detect_atomicity : bool;
  metrics : string option;
  (** where {!Pipeline.with_telemetry} dumps the metrics registry after
      the run: a path ([.json] selects the JSON exporter) or ["-"] for
      stdout; [None] (default) leaves telemetry off *)
  trace : string option;
  (** Chrome-trace span stream destination (path or ["-"]); [None]
      (default) disables tracing *)
  max_buffered : int option;
  (** bound on out-of-order buffered messages in the ingestion layers
      ({!Observer.Ingest}, {!Predict.Online}, [jmpax stream]); [None]
      (default) = unbounded *)
  on_decode_error : recovery;
  (** streaming decode-error policy; irrelevant to in-process runs *)
  checkpoint : (string * int) option;
  (** crash-safety for [jmpax stream]: write a {!Checkpoint} to this
      path every N lattice levels; [None] (default) = no checkpoints *)
  reconnect : Transport.backoff option;
  (** reconnection policy for socket transports; [None] (default) =
      a dropped connection ends the stream *)
  engines : Predict.Engine.kind list;
  (** prediction engines the observer side runs ([--engine]); default
      [[Lattice]], the historical behaviour *)
  budget : Budget.limits;
  (** resource budgets on live analysis state ([--max-frontier-cuts],
      [--max-causal-buffered], [--memory-budget]); default
      {!Budget.unlimited} *)
  on_overload : Budget.policy;
  (** what a crossed budget does ([--on-overload]); default
      {!Budget.Fail}, today's stop-the-stream behaviour *)
}

val default : unit -> t
(** Round-robin schedule, [fuel = 100_000], in-order delivery, dense
    clocks, race, deadlock and atomicity detection on. *)

val with_sched : Tml.Sched.t -> t -> t
val with_seed : int -> t -> t
(** Replaces the scheduler by [Tml.Sched.random ~seed]. *)

val with_channel : channel_model -> t -> t

val with_clock : Clock.Spec.backend -> t -> t

val with_metrics : string option -> t -> t
val with_trace : string option -> t -> t

val with_max_buffered : int option -> t -> t
(** @raise Invalid_argument when negative. *)

val with_on_decode_error : recovery -> t -> t

val with_checkpoint : (string * int) option -> t -> t
(** @raise Invalid_argument when the level interval is below 1. *)

val with_reconnect : Transport.backoff option -> t -> t

val with_engines : Predict.Engine.kind list -> t -> t
(** @raise Invalid_argument on an empty selection. *)

val with_engine_names : string -> t -> t
(** Parses [--engine] syntax (comma-separated, duplicates dropped).
    @raise Invalid_argument on an unknown engine name. *)

val with_budget : Budget.limits -> t -> t
val with_on_overload : Budget.policy -> t -> t

val recovery_of_string : string -> recovery option
(** Accepts ["fail"], ["skip"], ["quarantine"]. *)

val recovery_to_string : recovery -> string

val with_clock_name : string -> t -> t
(** Looks the backend up in {!Clock.Registry}.
    @raise Invalid_argument on an unknown name. *)
