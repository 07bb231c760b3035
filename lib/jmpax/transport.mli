(** Supervised byte transports for the streaming observer.

    A transport wraps a raw [read] function (file, FIFO, socket, stdin)
    with the retry discipline a long-running monitor needs:

    - every read retries transparently on [EINTR]/[EAGAIN], so signal
      delivery to the observer process never surfaces as a spurious
      decode failure;
    - a {!reconnecting} transport treats end-of-file and connection
      resets as transient: it redials with exponential backoff and
      decorrelated jitter, then {e replays} past the bytes already
      delivered, so the consumer sees one contiguous stream across
      arbitrarily many connection drops;
    - a seeded {!Faulty} combinator injects short reads, [EINTR],
      [ECONNRESET] stalls and truncation deterministically, so the
      recovery machinery is testable without real sockets or signals.

    Retries, reconnects and replayed bytes surface as the
    [transport.*] telemetry counters. *)

type t

val read : t -> bytes -> int -> int -> int
(** Cooked read: blocks until input is available, retries [EINTR] and
    [EAGAIN] in place, returns [0] only at end of transport (for a
    {!reconnecting} transport: only once the retry budget is spent or
    {!close} was called). *)

val close : t -> unit
(** Idempotent. *)

val offset : t -> int
(** Absolute stream offset of the next byte the consumer will receive —
    bytes handed out by {!read} plus any resume [skip].  This is the
    position a checkpoint pairs with {!Wire.Reader.consumed}. *)

val lost : t -> string option
(** [Some reason] once a {!reconnecting} transport has exhausted its
    retry budget and given up; {!read} then returns [0].  Distinguishes
    transport loss (exit code 5) from a clean end of stream. *)

(** {1 Constructors} *)

val of_read : ?close:(unit -> unit) -> (bytes -> int -> int -> int) -> t
(** The base transport: [EINTR]/[EAGAIN]-retrying wrapper around a raw
    read function. *)

val of_fd : ?close_fd:bool -> Unix.file_descr -> t
(** [Unix.read] on [fd]; [close_fd] (default [true]) closes it on
    {!close}. *)

val of_channel : in_channel -> t
(** Does not close the channel — the caller owns it. *)

val of_string : string -> t
(** In-memory transport for tests. *)

val listen_once : ?backlog:int -> string -> (t, string) result
(** Bind a Unix listening socket at [path], accept exactly one
    connection, and return it as a transport.  The listening socket is
    closed and the path unlinked {e immediately after} the accept — a
    single-session consumer must not keep the listener alive for the
    rest of the process (a leaked fd, and a trap for any second writer,
    which would connect into a backlog nobody will ever drain; the
    regression test connects again after the accept and requires the
    refusal).  Blocks until a writer connects.  For many concurrent
    sessions use [jmpax serve] instead. *)

(** {1 Reconnection} *)

type backoff = {
  bo_min : float;  (** first sleep, seconds *)
  bo_max : float;  (** cap on a single sleep *)
  bo_retries : int;  (** total redial budget across the whole run *)
  bo_deadline : float;
      (** total seconds of backoff sleep allowed across the whole run;
          [0.] means unlimited.  Counted over the {e requested} sleep
          durations, so tests with a no-op [sleep] see the same budget
          arithmetic as production. *)
}

val reconnecting :
  ?backoff:backoff ->
  ?sleep:(float -> unit) ->
  ?seed:int ->
  ?skip:int ->
  dial:(unit -> ((bytes -> int -> int -> int) * (unit -> unit), string) result) ->
  unit ->
  t
(** A transport that survives connection loss.  [dial] establishes a
    fresh connection, returning its raw read and close functions, or
    [Error] when the peer is not (yet) accepting — both a failed dial
    and a dropped connection consume one unit of [bo_retries] and one
    backoff sleep.

    Sleeps follow {e decorrelated jitter}: each is drawn uniformly from
    [[bo_min, 3 × previous]], capped at [bo_max], from a PRNG seeded
    with [seed] — deterministic for tests, collision-avoiding in
    production.  [sleep] defaults to [Unix.sleepf].

    On every (re)connection the writer is assumed to replay the stream
    from its beginning, so the transport first discards {!offset} bytes
    — the prefix the consumer already has; [skip] (default [0]) seeds
    that offset for checkpoint resume.  End-of-file {e during} the
    discard is a connection failure like any other.

    Note that a reconnecting transport cannot tell a finished writer
    from a crashed one: reading at end of stream redials until the
    budget is gone.  The stream driver therefore stops reading as soon
    as the logical end of the stream (every thread's end-of-stream
    frame) has been decoded. *)

(** {1 Deterministic fault injection} *)

module Faulty : sig
  type plan = {
    seed : int;
    short_reads : bool;
        (** deliver a random nonempty prefix of each request *)
    eintr_every : int;  (** raise [EINTR] every n-th read; [0] = never *)
    stall_every : int;
        (** raise [EAGAIN] every n-th read (a not-ready channel);
            [0] = never *)
    reset_at : int;
        (** raise [ECONNRESET] once, at the first read at or past this
            many delivered bytes; negative = never *)
    truncate_at : int;
        (** permanent end-of-file after this many delivered bytes;
            negative = never *)
  }

  val quiet : plan
  (** No faults: [wrap quiet] is behaviourally the identity. *)

  val wrap : plan -> (bytes -> int -> int -> int) -> bytes -> int -> int -> int
  (** Wraps a {e raw} read function (stack it {e under} {!of_read} or
      inside a [dial]), injecting the plan's faults deterministically
      from [seed].  Same plan + same underlying bytes ⇒ same fault
      schedule, which is what lets the crash-kill-resume suite replay a
      failure exactly. *)
end
