(** Wire formats for observer messages.

    JMPaX ships [⟨e, i, V⟩] messages over a socket to an external
    observer process (paper, Fig. 4). This module fixes two encodings
    so executions can cross process boundaries here too; observers read
    only the second:

    {2 Version 1 — line-oriented text, written only}

    {v
    jmpax-trace 1          -- header: magic and version
    threads <n>
    init <var> <value>     -- zero or more
    msg <tid> <var> <value> (k0,k1,...,kn-1)
    v}

    Variable names are percent-encoded so spaces and newlines cannot
    corrupt framing.  The human-readable dump of a trace, and the only
    format for traces wider than {!Framed3.max_threads}; nothing in this
    library reads a v1 document back.  Checkpoints store buffered
    messages as [msg] lines ({!add_message}).

    {2 Version 3 — length-framed binary stream ({!Framed3})}

    The streaming format an online observer consumes while the program
    runs: a versioned preamble followed by self-delimiting frames
    (header, variable definition, message, per-thread end-of-stream),
    each guarded by a sentinel.  Payloads are binary: LEB128 varints,
    variable names interned once per stream, and vector clocks shipped
    as sparse deltas against the sender's previous clock for the same
    thread, with a full-clock escape frame for resynchronization.
    Decoded in place by the reader with no per-message allocation
    beyond the message itself.

    {!Reader} decodes v3 incrementally from arbitrary chunk boundaries
    and {e resynchronizes} on the next frame after malformed input
    instead of giving up — every failure is a typed {!Error.t}, never an
    exception.  A skip poisons every delta baseline, so the delta frames
    that follow it are skipped too ({!Error.Stale_delta_baseline}) until
    a full clock re-anchors their thread: recovery loses messages, and
    reports them, but never decodes a wrong clock.  The retired text
    stream, wire v2 (preamble ["jmpax-wire 2"]), is refused: its
    preamble is a {!Error.Bad_preamble} and its frames are unknown
    kinds. *)

open Trace

type header = {
  nthreads : int;
  init : (Types.var * Types.value) list;
}

(** Decode-error taxonomy of the v3 reader (and the stream driver on top of it). *)
module Error : sig
  type t =
    | Missing_threads
    | Duplicate_threads of string
    | Bad_thread_count of string
    | Bad_escape of string
    | Truncated_escape of string
    | Bad_init of string
    | Inconsistent_message of string
        (** the emitting thread's own clock component is missing or < 1 *)
    | Tid_out_of_range of { tid : int; nthreads : int }
    | Unrecognized_line of string
    | Bad_preamble of string
    | Unknown_frame_kind of int
    | Frame_too_large of { length : int; limit : int }
    | Truncated_frame of { expected : int; got : int }
    | Bad_frame_trailer of int
    | Missing_header_frame
    | Duplicate_header_frame
    | Bad_end_frame of string
    | Duplicate_end of int
    | Message_after_end of { tid : int }
    | Lost_sync of int  (** bytes skipped while hunting for a sentinel *)
    | Bad_varint of string  (** truncated or overflowing LEB128 (v3) *)
    | Unknown_var_id of { id : int; defined : int }
        (** a v3 message references a variable id with no vardef frame *)
    | Too_many_vars of { limit : int }
    | Stale_delta_baseline of { tid : int }
        (** a v3 delta frame after skipped input invalidated the
            thread's baseline; only a full clock can resynchronize *)
    | Bad_delta of string  (** malformed v3 clock delta body *)
    | Duplicate_message of { tid : int; index : int }
    | Backpressure of { buffered : int; limit : int }
    | Missing_messages of { tid : int; next : int }
    | Checkpoint of string
        (** a checkpoint could not be written or restored mid-stream *)
    | Io of string

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

exception Frame_overflow of { kind : char; length : int; limit : int }
(** Raised by encoders handed a payload larger than
    {!Framed3.default_max_frame} — a frame no default reader would accept
    back. *)

(** {1 Variable-name escaping} *)

val encode_var : Types.var -> string
(** Percent-encodes ['%'], whitespace and control characters. *)

val decode_var : string -> (Types.var, Error.t) result
(** Inverse of {!encode_var}; both characters of an escape must be hex
    digits ([%4_] is {!Error.Bad_escape}, not ['\x04']). *)

(** {1 Version-1 text documents} *)

val add_message : Buffer.t -> Message.t -> unit
(** Append one [msg] line, without the newline. *)

val encode : header -> Message.t list -> string
(** A complete trace document. *)

(** {1 Version-3 binary streams}

    Each frame is the sentinel, a kind byte, a u32be payload length, the
    payload and a ['\n'] trailer, under the ["jmpax-wire 3\n"]
    preamble.  See DESIGN §4i for the full byte-level specification. *)

module Framed3 : sig
  val preamble : string
  (** ["jmpax-wire 3\n"] — the versioned magic that opens every stream. *)

  val sentinel : string
  (** The 3-byte frame guard ["\x00JF"]. *)

  val default_max_frame : int
  (** 1 MiB: the largest payload an encoder emits and a default
      {!Reader} accepts. *)

  val frame : char -> string -> string
  (** A raw frame (sentinel, kind, length, payload, trailer) around an
      arbitrary payload — the building block of the encoders, exposed so
      tests and the fuzzer can forge well-framed but invalid input.
      @raise Frame_overflow when the payload exceeds
      {!default_max_frame}: every frame an encoder emits is a frame a
      default {!Reader} accepts. *)

  val kind_header : char
  (** ['h'] — payload is the text header body ([threads <n>] and
      [init] lines, as in v1), one per stream. *)

  val kind_vardef : char
  (** ['v'] — payload is a percent-encoded variable name; interned ids
      are assigned in definition order, starting at 0. *)

  val kind_message : char
  (** ['m'] — flags byte (bit 0: full clock), then varint thread id,
      variable id, zigzag value, and either all [nthreads] clock entries
      (full) or a sparse [(index-gap, zigzag delta)] list against the
      thread's previous clock (delta). *)

  val kind_end : char
  (** ['e'] — payload is the varint thread id. *)

  val max_threads : int
  (** Widest clock a v3 stream may carry (4096).  Decoding costs one
      clock-width baseline per active thread, so a forged header
      claiming an absurd width would otherwise bill the reader
      quadratic memory; readers reject wider v3 headers with
      {!Error.Bad_thread_count} and {!encoder} refuses to produce them
      ([Invalid_argument]).  Wider traces are written as v1 text. *)

  type encoder
  (** Per-stream encoder state: the variable intern table and the
      per-thread last-transmitted clock baselines deltas are computed
      against.  Encoding is deterministic: the same header and message
      sequence always produce the same bytes, which is what keeps
      replay-from-zero reconnects ({!Transport.reconnecting}, [serve]
      session resume) byte-identical and hence sound. *)

  val encoder : header -> encoder

  val encode_header : header -> string
  (** The header frame (without the preamble). *)

  val encode_message : encoder -> Message.t -> string
  (** The message frame, preceded by a vardef frame when the message's
      variable has not been sent yet.  The first message of a thread is
      encoded as a delta against the all-zero clock (or a full clock
      right after {!reset}).
      @raise Invalid_argument on a thread id or clock width that
      disagrees with the encoder's header.
      @raise Frame_overflow as {!frame}. *)

  val encode_end : int -> string

  val reset : encoder -> unit
  (** Forget every per-thread baseline: each thread's next message
      carries a full clock.  The escape hatch for a writer that redials
      and continues mid-stream instead of replaying byte-identical
      output from offset zero.  The intern table is kept — ids are
      stream-scoped and the receiver never discards them. *)

  val encode : header -> Message.t list -> string
  (** Preamble, header frame, interleaved vardef/message frames from a
      fresh {!encoder}, then one end-of-stream frame per thread. *)
end

val decode_framed : string -> (header * Message.t list, Error.t) result
(** Strict whole-document decode of a framed stream: the first error
    aborts.  End-of-stream frames are checked but not required. *)

(** Incremental decoder for framed streams. *)
module Reader : sig
  type item =
    | Header of header
    | Msg of Message.t  (** event ids are assigned in arrival order *)
    | End_of_thread of int

  type event =
    | Item of item
    | Skip of { error : Error.t; bytes : string }
        (** malformed input was skipped up to the next frame; [bytes] is
            the raw span, for quarantining *)
    | Await  (** a frame is incomplete: feed more input *)
    | Eof  (** the reader is closed and fully drained *)

  type stats = {
    frames : int;  (** well-formed frames delivered (vardefs included) *)
    messages : int;
    skipped_frames : int;
    resyncs : int;  (** garbage spans skipped to regain frame sync *)
    skipped_bytes : int;
  }

  type v3_state = {
    v3_vars : string array;  (** intern table, id order *)
    v3_baselines : int array array;  (** per-thread last decoded clock *)
    v3_valid : bool array;
        (** per-thread baseline validity; a skip poisons every baseline
            (the lost bytes may have hidden a message) and only a
            full-clock frame re-anchors a thread *)
  }
  (** The delta-decode state of a stream — what a checkpoint must
      persist beyond the reader's position and counters for a resume to
      keep decoding deltas. *)

  type t

  val create : ?max_frame:int -> unit -> t
  (** [max_frame] (default 1 MiB) bounds a single frame; larger length
      prefixes are treated as corruption and resynchronized past. *)

  val resume :
    ?max_frame:int ->
    v3:v3_state ->
    header:header ->
    ended:bool array ->
    next_eid:int ->
    stats:stats ->
    consumed:int ->
    unit ->
    t
  (** A reader already past the preamble and the header frame — the
      checkpoint-restore path of [Stream].  The transport must be
      positioned at stream offset [consumed] (the value {!consumed}
      reported when the checkpoint was taken); [stats] seeds the
      counters so the final report covers the whole stream, and [v3]
      (the {!v3_state} captured at checkpoint time) the delta-decode
      state.
      @raise Invalid_argument when [ended]'s or [v3]'s width disagrees
      with the header. *)

  val feed : t -> string -> unit
  (** Append a chunk of transport bytes; any chunk boundary is fine.
      @raise Invalid_argument after {!close}. *)

  val feed_bytes : t -> Bytes.t -> int -> int -> unit
  (** [feed_bytes t src pos len] appends [src[pos..pos+len)] without an
      intermediate string — the zero-copy path for transports that read
      into a reusable [Bytes.t] buffer.  The bytes are blitted straight
      into the reader's parse buffer, where v3 payloads are then decoded
      in place.
      @raise Invalid_argument after {!close} or on an invalid range. *)

  val close : t -> unit
  (** Declare end of transport: pending partial input becomes
      {!Error.Truncated_frame} and draining ends with [Eof]. *)

  val next : t -> event
  (** Never raises: all malformed input surfaces as [Skip]. *)

  val header : t -> header option
  (** The stream header, once its frame has been delivered. *)

  val consumed : t -> int
  (** Stream offset of the next unparsed byte.  Right after an [Item]
      event (garbage buffer empty) this is a clean frame boundary — the
      position a checkpoint records and a resumed transport seeks to. *)

  val next_eid : t -> int
  (** The event id the next decoded message will receive — part of what
      a checkpoint must preserve for event ids to stay stable across a
      resume. *)

  val pending_bytes : t -> int
  (** Fed bytes not yet delivered as an event: a partial frame, or a
      garbage span still being scanned.  [0] right after an [Item] means
      the reader is at a frame boundary with nothing buffered. *)

  val ended_threads : t -> bool array
  (** Which threads have delivered their end-of-stream frame (a copy;
      empty before the header). *)

  val refuse : t -> string
  (** The consumer refuses the message the last {!next} delivered (a
      duplicate): its frame leaves the delivered [frames] and [messages]
      of {!stats} for [skipped_frames] and [skipped_bytes], and its wire
      bytes are returned, for quarantining.  Call it right after [next]
      returned [Item (Msg _)], before anything else touches [t]. *)

  val v3_state : t -> v3_state option
  (** [Some] (a deep copy) once the header frame has been delivered;
      [None] before. *)

  val stats : t -> stats
end

(** {1 Files} *)

type format = V1 | Binary_v3

val write_file :
  ?format:format -> string -> header -> Message.t list -> (unit, Error.t) result
(** Default format: {!Binary_v3}.  Nothing is written when the trace
    does not fit the format: a header wider than {!Framed3.max_threads}
    is {!Error.Bad_thread_count} and a payload over
    {!Framed3.default_max_frame} is {!Error.Frame_too_large} (v1 text
    has neither limit); an unwritable path is [Error (Io _)]. *)
