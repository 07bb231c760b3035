(** Crash-safe snapshots of a streaming observer run.

    A checkpoint captures everything [jmpax stream] needs to continue
    after a crash with verdicts, violations and gc statistics identical
    to never having stopped: the stream header, the
    {!Predict.Online.snapshot} (frontier, message store, violations,
    counters), the {!Wire.Reader} position and counters, and the
    driver's own statistics.  Thanks to the paper's level-by-level
    garbage collection the live state is proportional to the current
    frontier, not to the history — snapshots stay small however long
    the monitored program runs.

    {2 File format (version 1)}

    {v
    jmpax-ckpt 1
    len <bytes> crc <crc32-hex>
    <body>
    v}

    The body is a line-oriented text section (variable names
    percent-encoded exactly as on the wire) whose length and IEEE CRC32
    are pinned by the envelope: a flip of {e any} byte of the file is
    rejected before a single field is interpreted, so a restore is
    all-or-nothing.  Writes are atomic — the file is assembled under a
    temporary name in the same directory and [rename]d into place — so
    a crash mid-write leaves the previous checkpoint intact.

    A checkpoint records the {!fingerprint} of the specification it was
    taken under; {!validate} refuses to resume under a different one. *)

type t = {
  ck_header : Wire.header;
  ck_spec_fp : string;  (** {!fingerprint} of the spec in force *)
  ck_position : int;
      (** transport byte offset of the next unparsed byte (a clean frame
          boundary); a resumed transport skips this many bytes *)
  ck_next_eid : int;
  ck_reader_stats : Wire.Reader.stats;
  ck_reader_ended : bool array;
  ck_v3 : Wire.Reader.v3_state option;
      (** the wire-v3 delta-decode state (intern table, per-thread
          baselines and their validity bits).  Always [Some] in a
          checkpoint {!decode} returns: a body without it was written
          mid-stream by a build that still read wire v2, and is refused
          as [Malformed]. *)
  ck_ends : int;  (** end-of-stream frames consumed by the driver *)
  ck_quarantined : int;
  ck_peak_buffered : int;
  ck_engines : (string * string list) list;
      (** versioned opaque sub-blocks of the non-lattice engines
          ({!Predict.Engines.snapshots}); each engine validates its own
          version line on restore.  Empty for pre-registry files. *)
  ck_online : Predict.Online.snapshot option;
      (** the lattice engine's state; [None] when the session ran
          without the lattice engine ([--engine race,...]).  At least
          one of [ck_engines] / [ck_online] is always present. *)
  ck_degraded : Predict.Engines.degraded option;
      (** [Some _] iff the bundle shed its lattice engine under an
          overload budget ({!Predict.Engines.degrade}) before this
          checkpoint was taken; the marker survives kill/resume so a
          degraded verdict is never laundered into a full one.  A
          degraded checkpoint never carries [ck_online], and the line is
          omitted when [None] so pre-budget files are byte-identical. *)
}

type error =
  | Bad_magic of string
  | Bad_envelope of string
  | Truncated of { expected : int; got : int }
  | Crc_mismatch of { expected : string; got : string }
  | Malformed of string
  | Spec_mismatch of { expected : string; got : string }
  | Io of string

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val crc32 : string -> int
(** The IEEE 802.3 CRC32 of the string (["123456789"] gives
    [0xcbf43926]), as the envelope and {!fingerprint} use it. *)

val fingerprint : Pastltl.Formula.t -> string
(** 8-hex-digit digest of the formula's canonical rendering. *)

val encode : t -> string
(** The complete file contents, envelope included. *)

val decode : string -> (t, error) result
(** Strict inverse of {!encode}: magic, envelope, CRC and every field
    are validated before anything is returned — corruption can never
    yield a partial restore.  Internal consistency (array widths vs the
    header's thread count) is checked here too. *)

val write : string -> t -> (unit, error) result
(** Atomic: encodes to [path ^ ".tmp"] and renames over [path], so
    observers of [path] see either the old or the new checkpoint, never
    a torn one.  Publishes the [checkpoint.*] telemetry counters. *)

val read : string -> (t, error) result

val validate : spec:Pastltl.Formula.t -> t -> (unit, error) result
(** Refuses a checkpoint taken under a different specification —
    restoring a frontier of monitor states against the wrong monitor
    would silently corrupt verdicts. *)

val reader : ?max_frame:int -> t -> Wire.Reader.t
(** A {!Wire.Reader} standing where the checkpoint was taken: past the
    header, at stream offset [ck_position], with the checkpoint's
    counters and delta-decode state.
    @raise Invalid_argument when [ck_v3] is [None] or a width disagrees
    with the header. *)
