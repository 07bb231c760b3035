open Trace

type header = {
  nthreads : int;
  init : (Types.var * Types.value) list;
}

let magic = "jmpax-trace 1"

(* {1 Typed decode errors} *)

module Error = struct
  type t =
    | Empty
    | Bad_magic of string
    | Missing_threads
    | Duplicate_threads of string
    | Misplaced_threads of string
    | Bad_thread_count of string
    | Bad_escape of string
    | Truncated_escape of string
    | Bad_init of string
    | Malformed_msg of string
    | Bad_clock of string
    | Inconsistent_message of string
    | Tid_out_of_range of { tid : int; nthreads : int }
    | Clock_width_mismatch of { width : int; expected : int }
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
    | Lost_sync of int
    | Bad_varint of string
    | Unknown_var_id of { id : int; defined : int }
    | Too_many_vars of { limit : int }
    | Stale_delta_baseline of { tid : int }
    | Bad_delta of string
    | Duplicate_message of { tid : int; index : int }
    | Backpressure of { buffered : int; limit : int }
    | Missing_messages of { tid : int; next : int }
    | Checkpoint of string
    | Io of string

  let to_string = function
    | Empty -> "empty trace"
    | Bad_magic s -> Printf.sprintf "bad magic %S" s
    | Missing_threads -> "missing 'threads' line"
    | Duplicate_threads s -> Printf.sprintf "duplicate 'threads' line %S" s
    | Misplaced_threads s ->
        Printf.sprintf "'threads' line %S after the first message" s
    | Bad_thread_count s -> Printf.sprintf "bad thread count %S" s
    | Bad_escape s -> Printf.sprintf "bad escape in variable name %S" s
    | Truncated_escape s -> Printf.sprintf "truncated escape in variable name %S" s
    | Bad_init s -> Printf.sprintf "bad init line %S" s
    | Malformed_msg s -> Printf.sprintf "malformed msg line %S" s
    | Bad_clock s -> Printf.sprintf "bad vector clock %S" s
    | Inconsistent_message s -> Printf.sprintf "inconsistent message %S" s
    | Tid_out_of_range { tid; nthreads } ->
        Printf.sprintf "thread id %d out of range (trace has %d threads)" tid nthreads
    | Clock_width_mismatch { width; expected } ->
        Printf.sprintf "vector clock has %d components where the header promises %d"
          width expected
    | Unrecognized_line s -> Printf.sprintf "unrecognized line %S" s
    | Bad_preamble s -> Printf.sprintf "bad stream preamble %S" s
    | Unknown_frame_kind k -> Printf.sprintf "unknown frame kind 0x%02X" k
    | Frame_too_large { length; limit } ->
        Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" length limit
    | Truncated_frame { expected; got } ->
        Printf.sprintf "truncated frame: expected %d bytes, got %d" expected got
    | Bad_frame_trailer b -> Printf.sprintf "bad frame trailer byte 0x%02X" b
    | Missing_header_frame -> "stream carries no header frame"
    | Duplicate_header_frame -> "duplicate header frame"
    | Bad_end_frame s -> Printf.sprintf "bad end-of-stream frame %S" s
    | Duplicate_end tid -> Printf.sprintf "duplicate end-of-stream for thread %d" tid
    | Message_after_end { tid } ->
        Printf.sprintf "message from thread %d after its end-of-stream frame" tid
    | Lost_sync n -> Printf.sprintf "lost frame sync: %d byte(s) skipped" n
    | Bad_varint s -> Printf.sprintf "bad varint (%s)" s
    | Unknown_var_id { id; defined } ->
        Printf.sprintf "variable id %d not interned (%d defined)" id defined
    | Too_many_vars { limit } ->
        Printf.sprintf "variable intern table full (%d entries)" limit
    | Stale_delta_baseline { tid } ->
        Printf.sprintf
          "delta message for thread %d after its baseline was invalidated by \
           skipped input; a full-clock frame is required to resynchronize"
          tid
    | Bad_delta s -> Printf.sprintf "bad clock delta (%s)" s
    | Duplicate_message { tid; index } ->
        Printf.sprintf "duplicate message (thread %d, index %d)" tid index
    | Backpressure { buffered; limit } ->
        Printf.sprintf "backpressure: %d out-of-order messages buffered (limit %d)"
          buffered limit
    | Missing_messages { tid; next } ->
        Printf.sprintf "stream ended while thread %d is missing message %d" tid next
    | Checkpoint s -> Printf.sprintf "checkpoint: %s" s
    | Io s -> s

  let pp ppf e = Format.pp_print_string ppf (to_string e)
end

let ( let* ) = Result.bind

exception Frame_overflow of { kind : char; length : int; limit : int }

(* {1 Variable-name escaping} *)

(* Percent-encoding for variable names: '%', whitespace and control
   characters are escaped, everything else passes through. *)
let needs_escape c = c = '%' || c <= ' ' || c = '\x7f'
let hex_upper = "0123456789ABCDEF"

(* Names almost never need an escape, so the common case returns [x]
   itself; otherwise one string of the exact length is filled. *)
let encode_var x =
  let escapes = ref 0 in
  String.iter (fun c -> if needs_escape c then incr escapes) x;
  if !escapes = 0 then x
  else begin
    let b = Bytes.create (String.length x + (2 * !escapes)) in
    let pos = ref 0 in
    String.iter
      (fun c ->
        if needs_escape c then begin
          Bytes.unsafe_set b !pos '%';
          Bytes.unsafe_set b (!pos + 1) hex_upper.[Char.code c lsr 4];
          Bytes.unsafe_set b (!pos + 2) hex_upper.[Char.code c land 15];
          pos := !pos + 3
        end
        else begin
          Bytes.unsafe_set b !pos c;
          incr pos
        end)
      x;
    Bytes.unsafe_to_string b
  end

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let decode_var s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else if s.[i] = '%' then
      if i + 2 < n then
        (* Both characters must be hex digits; [int_of_string "0x.."]
           would also tolerate underscores and signs. *)
        match (hex_digit s.[i + 1], hex_digit s.[i + 2]) with
        | Some hi, Some lo ->
            Buffer.add_char buf (Char.chr ((hi * 16) + lo));
            go (i + 3)
        | _ -> Error (Error.Bad_escape s)
      else Error (Error.Truncated_escape s)
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0

(* {1 Line (record) codecs} *)

let add_message buf (m : Message.t) =
  Buffer.add_string buf "msg ";
  Vclock.add_int buf m.tid;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (encode_var m.var);
  Buffer.add_char buf ' ';
  Vclock.add_int buf m.value;
  Buffer.add_char buf ' ';
  Vclock.add_to_buffer buf m.mvc

let encode_message m =
  let buf = Buffer.create 32 in
  add_message buf m;
  Buffer.contents buf

(* [expect_width] is the header's thread count; when given, the thread id
   and the clock's dimension are validated against it. *)
let decode_message ?expect_width line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "msg"; tid; var; value; clock ] -> (
      match (int_of_string_opt tid, decode_var var, int_of_string_opt value) with
      | Some tid, Ok var, Some value -> (
          let* mvc =
            match Vclock.of_string clock with
            | mvc -> Ok mvc
            | exception Invalid_argument _ -> Error (Error.Bad_clock clock)
          in
          let* () =
            match expect_width with
            | Some nthreads when tid < 0 || tid >= nthreads ->
                Error (Error.Tid_out_of_range { tid; nthreads })
            | Some nthreads when Vclock.dim mvc <> nthreads ->
                Error
                  (Error.Clock_width_mismatch
                     { width = Vclock.dim mvc; expected = nthreads })
            | _ -> Ok ()
          in
          if tid < 0 || tid >= Vclock.dim mvc || Vclock.get mvc tid < 1 then
            Error (Error.Inconsistent_message line)
          else
            match Message.make ~eid:0 ~tid ~var ~value ~mvc with
            | m -> Ok m
            | exception _ -> Error (Error.Inconsistent_message line))
      | _, Error e, _ -> Error e
      | _ -> Error (Error.Malformed_msg line))
  | _ -> Error (Error.Malformed_msg line)

let encode_header_body header =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "threads %d" header.nthreads);
  List.iter
    (fun (x, v) ->
      Buffer.add_string buf (Printf.sprintf "\ninit %s %d" (encode_var x) v))
    header.init;
  Buffer.contents buf

let decode_init_line line = function
  | [ x; v ] -> (
      match (decode_var x, int_of_string_opt v) with
      | Ok x, Some v -> Ok (x, v)
      | Error e, _ -> Error e
      | _, None -> Error (Error.Bad_init line))
  | _ -> Error (Error.Bad_init line)

let decode_header_body text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let rec go header = function
    | [] -> (
        match header with
        | Some h -> Ok { h with init = List.rev h.init }
        | None -> Error Error.Missing_threads)
    | line :: rest -> (
        match String.split_on_char ' ' line with
        | "threads" :: args -> (
            if header <> None then Error (Error.Duplicate_threads line)
            else
              match args with
              | [ n ] -> (
                  match int_of_string_opt n with
                  | Some n when n > 0 -> go (Some { nthreads = n; init = [] }) rest
                  | _ -> Error (Error.Bad_thread_count line))
              | _ -> Error (Error.Bad_thread_count line))
        | "init" :: args -> (
            match header with
            | None -> Error Error.Missing_threads
            | Some h ->
                let* kv = decode_init_line line args in
                go (Some { h with init = kv :: h.init }) rest)
        | _ -> Error (Error.Unrecognized_line line))
  in
  go None lines

(* {1 Version-1 text documents} *)

let encode header messages =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (encode_header_body header);
  Buffer.add_char buf '\n';
  List.iter
    (fun m ->
      Buffer.add_string buf (encode_message m);
      Buffer.add_char buf '\n')
    messages;
  Buffer.contents buf

let decode text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> Error Error.Empty
  | first :: rest ->
      if first <> magic then Error (Error.Bad_magic first)
      else begin
        let rec go header rev_msgs = function
          | [] -> (
              match header with
              | None -> Error Error.Missing_threads
              | Some h ->
                  (* Restore observed-order event ids. *)
                  let msgs =
                    List.rev rev_msgs
                    |> List.mapi (fun i (m : Message.t) -> { m with Message.eid = i })
                  in
                  Ok ({ h with init = List.rev h.init }, msgs))
          | line :: rest -> (
              match String.split_on_char ' ' line with
              | "threads" :: args -> (
                  (* A second header line — or one arriving after messages
                     already decoded against the first — would silently
                     rebind every subsequent validation; both are hard
                     errors. *)
                  if rev_msgs <> [] then Error (Error.Misplaced_threads line)
                  else if header <> None then Error (Error.Duplicate_threads line)
                  else
                    match args with
                    | [ n ] -> (
                        match int_of_string_opt n with
                        | Some n when n > 0 ->
                            go (Some { nthreads = n; init = [] }) rev_msgs rest
                        | _ -> Error (Error.Bad_thread_count line))
                    | _ -> Error (Error.Bad_thread_count line))
              | "init" :: args -> (
                  match header with
                  | None -> Error Error.Missing_threads
                  | Some h ->
                      let* kv = decode_init_line line args in
                      go (Some { h with init = kv :: h.init }) rev_msgs rest)
              | "msg" :: _ -> (
                  match header with
                  | None -> Error Error.Missing_threads
                  | Some h ->
                      let* m = decode_message ~expect_width:h.nthreads line in
                      go header (m :: rev_msgs) rest)
              | _ -> Error (Error.Unrecognized_line line))
        in
        go None [] rest
      end

(* {1 Framed binary wire format, version 3}

   A stream is the 13-byte preamble ["jmpax-wire 3\n"] followed by
   frames.  Each frame is

   {v
   0x00 'J' 'F'  kind  len:u32be  payload[len]  '\n'
   v}

   A reader that hits garbage resynchronizes by scanning for the next
   3-byte sentinel; the trailing newline doubles as a cheap tamper
   tripwire for corrupted lengths.  Message payloads are binary: LEB128
   varints, variable names interned once per stream, and vector clocks
   shipped as sparse {e deltas} against the sender's previous clock for
   the same thread.  Between consecutive events of one thread only a few
   entries change (Zheng & Garg's optimal-VC observation), so a delta
   frame is a handful of bytes where a text line would re-send all
   [nthreads] entries in decimal.

   A full clock (flags bit 0) is the escape hatch: it replaces the
   receiver's baseline outright, so an encoder that loses track of what
   the peer last saw — a redial without byte-identical replay — calls
   {!Framed3.reset} and the stream stays sound.  Binary payloads may
   contain the sentinel bytes, so post-corruption resync is best-effort
   (a false sentinel inside a payload costs an extra skip, never a wrong
   decode: after any skip the reader poisons every baseline and
   hard-errors on delta frames until a full clock re-anchors that
   thread). *)

module Framed3 = struct
  let preamble = "jmpax-wire 3\n"
  let sentinel = "\x00JF"
  let overhead = String.length sentinel + 1 + 4 + 1 (* kind + len + trailer *)
  let default_max_frame = 1 lsl 20
  let kind_header = 'h'
  let kind_vardef = 'v'
  let kind_message = 'm'
  let kind_end = 'e'

  (* Bound on interned names per stream: a decoder can't be ballooned by
     a hostile stream of vardef frames. *)
  let var_limit = 1 lsl 20

  (* Encoders enforce the same bound the default reader enforces, so a
     frame we emit is always a frame a peer accepts. *)
  let frame kind payload =
    let len = String.length payload in
    if len > default_max_frame then
      raise (Frame_overflow { kind; length = len; limit = default_max_frame });
    let buf = Buffer.create (overhead + len) in
    Buffer.add_string buf sentinel;
    Buffer.add_char buf kind;
    Buffer.add_char buf (Char.chr ((len lsr 24) land 0xff));
    Buffer.add_char buf (Char.chr ((len lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((len lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (len land 0xff));
    Buffer.add_string buf payload;
    Buffer.add_char buf '\n';
    Buffer.contents buf

  let frame_result kind payload =
    match frame kind payload with
    | s -> Ok s
    | exception Frame_overflow { length; limit; _ } ->
        Error (Error.Frame_too_large { length; limit })

  (* Unsigned LEB128; OCaml ints are 63-bit so 9 groups of 7 suffice. *)
  let add_varint buf n =
    if n < 0 then invalid_arg "Wire.Framed3: negative varint";
    let rec go n =
      if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
      else begin
        Buffer.add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
        go (n lsr 7)
      end
    in
    go n

  let zigzag n = (n lsl 1) lxor (n asr 62)

  type encoder = {
    enc_header : header;
    var_ids : (string, int) Hashtbl.t;
    mutable nvars : int;
    baselines : int array array;  (* per-thread last transmitted clock *)
    valid : bool array;  (* false ⇒ next frame for that thread is full *)
  }

  (* Decoding a v3 stream costs one clock-width baseline per active
     thread; without a ceiling a forged header claiming a billion
     threads would bill the reader quadratic memory before a single
     message arrives.  Wider traces stay in v1 text. *)
  let max_threads = 4096

  let over_thread_limit n =
    Error.Bad_thread_count (Printf.sprintf "threads %d (v3 limit %d)" n max_threads)

  let encoder h =
    if h.nthreads <= 0 then invalid_arg "Wire.Framed3.encoder: no threads";
    if h.nthreads > max_threads then
      invalid_arg "Wire.Framed3.encoder: thread count over the v3 limit";
    { enc_header = h;
      var_ids = Hashtbl.create 16;
      nvars = 0;
      baselines = Array.init h.nthreads (fun _ -> Array.make h.nthreads 0);
      valid = Array.make h.nthreads true }

  (* Forget the per-thread baselines: every thread's next message
     carries a full clock.  The escape hatch for a writer that redials
     and continues mid-stream instead of replaying byte-identical bytes
     from offset zero.  The intern table is kept — variable ids are
     stream-scoped and the receiver never discards them. *)
  let reset enc = Array.fill enc.valid 0 (Array.length enc.valid) false

  let encode_header h = frame kind_header (encode_header_body h)

  let encode_message enc (m : Message.t) =
    let n = enc.enc_header.nthreads in
    if m.Message.tid < 0 || m.Message.tid >= n then
      invalid_arg "Wire.Framed3.encode_message: thread id out of range";
    if Vclock.dim m.Message.mvc <> n then
      invalid_arg "Wire.Framed3.encode_message: clock width disagrees with header";
    let out = Buffer.create 64 in
    let vid =
      match Hashtbl.find_opt enc.var_ids m.Message.var with
      | Some id -> id
      | None ->
          let id = enc.nvars in
          if id >= var_limit then
            invalid_arg "Wire.Framed3.encode_message: variable intern table full";
          Hashtbl.add enc.var_ids m.Message.var id;
          enc.nvars <- id + 1;
          Buffer.add_string out (frame kind_vardef (encode_var m.Message.var));
          id
    in
    let payload = Buffer.create 32 in
    let base = enc.baselines.(m.Message.tid) in
    let c = Vclock.to_array m.Message.mvc in
    if enc.valid.(m.Message.tid) then begin
      Buffer.add_char payload '\x00';
      add_varint payload m.Message.tid;
      add_varint payload vid;
      add_varint payload (zigzag m.Message.value);
      let k = ref 0 in
      for i = 0 to n - 1 do
        if c.(i) <> base.(i) then incr k
      done;
      add_varint payload !k;
      let prev = ref (-1) in
      for i = 0 to n - 1 do
        if c.(i) <> base.(i) then begin
          add_varint payload (i - !prev - 1);
          add_varint payload (zigzag (c.(i) - base.(i)));
          prev := i
        end
      done
    end
    else begin
      Buffer.add_char payload '\x01';
      add_varint payload m.Message.tid;
      add_varint payload vid;
      add_varint payload (zigzag m.Message.value);
      for i = 0 to n - 1 do
        add_varint payload c.(i)
      done;
      enc.valid.(m.Message.tid) <- true
    end;
    Array.blit c 0 base 0 n;
    Buffer.add_string out (frame kind_message (Buffer.contents payload));
    Buffer.contents out

  let encode_end tid =
    let payload = Buffer.create 4 in
    add_varint payload tid;
    frame kind_end (Buffer.contents payload)

  let encode h messages =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf preamble;
    Buffer.add_string buf (encode_header h);
    let enc = encoder h in
    List.iter (fun m -> Buffer.add_string buf (encode_message enc m)) messages;
    for tid = 0 to h.nthreads - 1 do
      Buffer.add_string buf (encode_end tid)
    done;
    Buffer.contents buf
end

(* {1 Incremental framed reader} *)

module Reader = struct
  type item =
    | Header of header
    | Msg of Message.t
    | End_of_thread of int

  type event =
    | Item of item
    | Skip of { error : Error.t; bytes : string }
    | Await
    | Eof

  type stats = {
    frames : int;
    messages : int;
    skipped_frames : int;
    resyncs : int;
    skipped_bytes : int;
  }

  type v3_state = {
    v3_vars : string array;
    v3_baselines : int array array;
    v3_valid : bool array;
  }

  (* The buffer is a compacting [Bytes.t]: chunks are blitted in at
     [len], frames parsed in place at [pos], and the live window slid
     back to offset 0 only when space runs out.  v3 payloads are decoded
     straight out of [buf] — no per-frame payload extraction — so the
     only per-message allocations are the clock array and the
     [Message.t] itself. *)
  type t = {
    max_frame : int;
    mutable buf : Bytes.t;
    mutable pos : int;  (* parse position in [buf] *)
    mutable len : int;  (* end of valid data in [buf] *)
    mutable scan : int;  (* in-place varint cursor (v3 payloads) *)
    mutable consumed : int;  (* stream offset of the next unparsed byte *)
    mutable closed : bool;
    mutable preamble_done : bool;
    mutable header : header option;
    mutable ended : bool array;  (* resized when the header arrives *)
    mutable next_eid : int;
    (* delta-decode state *)
    mutable vars : string array;  (* intern table, id order *)
    mutable nvars : int;
    mutable baselines : int array array;  (* per-thread last decoded clock *)
    mutable base_ok : bool array;  (* poisoned by skips until a full clock *)
    mutable frames : int;
    mutable messages : int;
    mutable skipped_frames : int;
    mutable resyncs : int;
    mutable skipped_bytes : int;
    garbage : Buffer.t;  (* bytes dropped while hunting for a sentinel *)
    mutable garbage_error : (string -> Error.t) option;
        (* why the hunt started; sticky until the span is flushed *)
  }

  let create ?(max_frame = Framed3.default_max_frame) () =
    { max_frame;
      buf = Bytes.create 4096;
      pos = 0;
      len = 0;
      scan = 0;
      consumed = 0;
      closed = false;
      preamble_done = false;
      header = None;
      ended = [||];
      next_eid = 0;
      vars = [||];
      nvars = 0;
      baselines = [||];
      base_ok = [||];
      frames = 0;
      messages = 0;
      skipped_frames = 0;
      resyncs = 0;
      skipped_bytes = 0;
      garbage = Buffer.create 0;
      garbage_error = None }

  (* A reader already past the preamble and header — the checkpoint
     restore path.  [consumed] seeds the stream offset so later
     checkpoints of the resumed run stay consistent, and [stats] carries
     the pre-crash counters so the final report covers the whole stream.
     [v3] restores the intern table and per-thread delta baselines. *)
  let resume ?(max_frame = Framed3.default_max_frame) ~v3 ~header:h ~ended ~next_eid
      ~stats:(s : stats) ~consumed () =
    if Array.length ended <> h.nthreads then
      invalid_arg "Wire.Reader.resume: ended width disagrees with the header";
    let { v3_vars; v3_baselines; v3_valid } = v3 in
    if
      Array.length v3_baselines <> h.nthreads
      || Array.length v3_valid <> h.nthreads
      || Array.exists (fun b -> Array.length b <> h.nthreads) v3_baselines
    then invalid_arg "Wire.Reader.resume: v3 state disagrees with the header";
    { max_frame;
      buf = Bytes.create 4096;
      pos = 0;
      len = 0;
      scan = 0;
      consumed;
      closed = false;
      preamble_done = true;
      header = Some h;
      ended = Array.copy ended;
      next_eid;
      vars = Array.copy v3_vars;
      nvars = Array.length v3_vars;
      baselines = Array.map Array.copy v3_baselines;
      base_ok = Array.copy v3_valid;
      frames = s.frames;
      messages = s.messages;
      skipped_frames = s.skipped_frames;
      resyncs = s.resyncs;
      skipped_bytes = s.skipped_bytes;
      garbage = Buffer.create 0;
      garbage_error = None }

  let stats t =
    { frames = t.frames;
      messages = t.messages;
      skipped_frames = t.skipped_frames;
      resyncs = t.resyncs;
      skipped_bytes = t.skipped_bytes }

  let available t = t.len - t.pos

  (* Make room for [extra] incoming bytes: slide the live window back to
     offset 0 when the tail is full, and double the buffer only when the
     window itself outgrows it. *)
  let ensure_space t extra =
    let live = available t in
    let cap = Bytes.length t.buf in
    if t.len + extra <= cap then ()
    else if live + extra <= cap then begin
      Bytes.blit t.buf t.pos t.buf 0 live;
      t.pos <- 0;
      t.len <- live
    end
    else begin
      let need = live + extra in
      let cap' = ref (max 4096 (cap * 2)) in
      while !cap' < need do
        cap' := !cap' * 2
      done;
      let nb = Bytes.create !cap' in
      Bytes.blit t.buf t.pos nb 0 live;
      t.buf <- nb;
      t.pos <- 0;
      t.len <- live
    end

  let feed_bytes t src srcpos n =
    if t.closed then invalid_arg "Wire.Reader.feed: reader is closed";
    if srcpos < 0 || n < 0 || srcpos + n > Bytes.length src then
      invalid_arg "Wire.Reader.feed_bytes: range out of bounds";
    if n > 0 then begin
      ensure_space t n;
      Bytes.blit src srcpos t.buf t.len n;
      t.len <- t.len + n
    end

  let feed t chunk =
    if t.closed then invalid_arg "Wire.Reader.feed: reader is closed";
    let n = String.length chunk in
    if n > 0 then begin
      ensure_space t n;
      Bytes.blit_string chunk 0 t.buf t.len n;
      t.len <- t.len + n
    end

  let close t = t.closed <- true

  let take t n =
    let s = Bytes.sub_string t.buf t.pos n in
    t.pos <- t.pos + n;
    t.consumed <- t.consumed + n;
    s

  let advance t n =
    t.pos <- t.pos + n;
    t.consumed <- t.consumed + n

  let consumed t = t.consumed
  let next_eid t = t.next_eid

  (* Buffered-but-unparsed bytes: transport input not yet delivered as an
     event (a partial frame, or a garbage span still being hunted). *)
  let pending_bytes t = available t + Buffer.length t.garbage

  (* Any skipped input may have hidden a message whose clock the peer
     folded into later deltas; until a full clock re-anchors a thread,
     decoding its deltas would be silently wrong.  Poison everything. *)
  let poison t = Array.fill t.base_ok 0 (Array.length t.base_ok) false

  (* Index of the first sentinel at or after [from], if any is complete
     in the buffered input. *)
  let find_sentinel t from =
    let b = t.buf and n = t.len in
    let rec go i =
      if i + 3 > n then None
      else if
        Bytes.unsafe_get b i = '\x00'
        && Bytes.unsafe_get b (i + 1) = 'J'
        && Bytes.unsafe_get b (i + 2) = 'F'
      then Some i
      else go (i + 1)
    in
    go from

  let flush_garbage t =
    let bytes = Buffer.contents t.garbage in
    Buffer.clear t.garbage;
    let error =
      match t.garbage_error with
      | Some f -> f bytes
      | None -> Error.Lost_sync (String.length bytes)
    in
    t.garbage_error <- None;
    t.resyncs <- t.resyncs + 1;
    t.skipped_bytes <- t.skipped_bytes + String.length bytes;
    poison t;
    Skip { error; bytes }

  (* Drop garbage up to the next sentinel (or, while the stream is still
     open, up to a possible partial sentinel at the very end).  Returns
     [Some event] once a complete garbage span has been identified;
     [None] means the hunt continues on the next {!feed}. *)
  let hunt_sync t =
    if t.garbage_error = None then
      t.garbage_error <- Some (fun bytes -> Error.Lost_sync (String.length bytes));
    match find_sentinel t t.pos with
    | Some j ->
        Buffer.add_string t.garbage (take t (j - t.pos));
        Some (flush_garbage t)
    | None ->
        (* Keep the last two bytes: they may be a sentinel prefix. *)
        let keep = if t.closed then 0 else min 2 (available t) in
        Buffer.add_string t.garbage (take t (available t - keep));
        if t.closed && Buffer.length t.garbage > 0 then Some (flush_garbage t)
        else begin
          if t.closed then t.garbage_error <- None;
          None
        end

  (* {2 In-place v3 payload parsing}

     All cursors live on [t.scan]; errors raise the local [Bad]
     exception, caught at the frame boundary, so the hot path allocates
     neither substrings nor intermediate tuples. *)

  exception Bad of Error.t

  let bad e = raise (Bad e)

  let get_byte t limit what =
    if t.scan >= limit then bad (Error.Bad_varint (what ^ ": truncated"));
    let b = Char.code (Bytes.unsafe_get t.buf t.scan) in
    t.scan <- t.scan + 1;
    b

  (* A loop, not a local recursive function: without flambda that
     function is a closure allocated on every call, several times per
     message.  At most 9 bytes (63 bits); a value reaching the sign bit
     or a 10th byte is an overflow. *)
  let get_varint_loop t limit what =
    let acc = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      let b = get_byte t limit what in
      acc := !acc lor ((b land 0x7f) lsl !shift);
      if !acc < 0 then bad (Error.Bad_varint (what ^ ": overflow"))
      else if b land 0x80 = 0 then more := false
      else if !shift >= 56 then bad (Error.Bad_varint (what ^ ": overflow"))
      else shift := !shift + 7
    done;
    !acc

  (* Most varints of a frame are one byte (small thread and variable
     ids, delta gaps, clock deltas): those take one bounds test and one
     load, inlined at the call site.  Anything else, an empty payload
     tail included, goes through the loop and its exact errors. *)
  let[@inline] get_varint t limit what =
    let s = t.scan in
    if s < limit then begin
      let b = Char.code (Bytes.unsafe_get t.buf s) in
      if b < 0x80 then begin
        t.scan <- s + 1;
        b
      end
      else get_varint_loop t limit what
    end
    else get_varint_loop t limit what

  let unzigzag n = (n lsr 1) lxor (- (n land 1))

  (* Baseline rows are allocated lazily, on a thread's first message:
     an empty row means "all zeros" (the initial baseline), and a
     header's claimed width alone never costs quadratic memory. *)
  let install_header t h =
    t.header <- Some h;
    t.ended <- Array.make h.nthreads false;
    t.baselines <- Array.make h.nthreads [||];
    t.base_ok <- Array.make h.nthreads true

  let deliver_vardef t ~base ~len =
    match t.header with
    | None -> Error Error.Missing_header_frame
    | Some _ ->
        if t.nvars >= Framed3.var_limit then
          Error (Error.Too_many_vars { limit = Framed3.var_limit })
        else
          let* name = decode_var (Bytes.sub_string t.buf (base + 8) len) in
          if t.nvars >= Array.length t.vars then begin
            let grown = Array.make (max 16 (2 * Array.length t.vars)) "" in
            Array.blit t.vars 0 grown 0 t.nvars;
            t.vars <- grown
          end;
          t.vars.(t.nvars) <- name;
          t.nvars <- t.nvars + 1;
          Ok None

  (* A message frame's payload, decoded in place into its thread's
     baseline row.  Every defect raises [Bad] (or, for an index the
     checks did not foresee, [Invalid_argument]); {!next} turns either
     into a skip. *)
  let deliver_msg3 t ~base ~len =
    let h = match t.header with None -> bad Error.Missing_header_frame | Some h -> h in
    let limit = base + 8 + len in
    t.scan <- base + 8;
    let flags = get_byte t limit "flags" in
    if flags land lnot 1 <> 0 then
      bad (Error.Bad_delta (Printf.sprintf "bad flags byte 0x%02X" flags));
    let full = flags land 1 = 1 in
    let tid = get_varint t limit "thread id" in
    if tid >= h.nthreads then
      bad (Error.Tid_out_of_range { tid; nthreads = h.nthreads });
    if t.ended.(tid) then bad (Error.Message_after_end { tid });
    (* Before the variable id: a frame lost to a resync may have been
       the very vardef this delta names, and the loss is the thread's. *)
    if not (full || t.base_ok.(tid)) then bad (Error.Stale_delta_baseline { tid });
    let vid = get_varint t limit "variable id" in
    if vid >= t.nvars then
      bad (Error.Unknown_var_id { id = vid; defined = t.nvars });
    let value = unzigzag (get_varint t limit "value") in
    let n = h.nthreads in
    let baseline =
      let b = t.baselines.(tid) in
      if Array.length b = n then b
      else begin
        (* First message from this thread: materialize its
           all-zero baseline row. *)
        let b = Array.make n 0 in
        t.baselines.(tid) <- b;
        b
      end
    in
    if full then begin
      for i = 0 to n - 1 do
        baseline.(i) <- get_varint t limit "clock entry"
      done;
      t.base_ok.(tid) <- true
    end
    else begin
      let k = get_varint t limit "delta count" in
      if k > n then
        bad (Error.Bad_delta (Printf.sprintf "%d deltas for a %d-thread clock" k n));
      let idx = ref (-1) in
      for _ = 1 to k do
        let gap = get_varint t limit "delta index" in
        let i = !idx + 1 + gap in
        if i >= n then bad (Error.Bad_delta "entry index out of range");
        idx := i;
        let d = unzigzag (get_varint t limit "delta value") in
        let v = baseline.(i) + d in
        if v < 0 then bad (Error.Bad_delta "negative clock entry");
        baseline.(i) <- v
      done
    end;
    if t.scan <> limit then
      bad (Error.Bad_delta "trailing bytes in message frame");
    if baseline.(tid) < 1 then
      bad
        (Error.Inconsistent_message
           (Printf.sprintf "v3 msg tid=%d own-component=%d" tid baseline.(tid)));
    (* Every component came off a checked varint or a non-negative
       delta, and [n >= 1]: what [of_array] would check, one closure
       call per component, already holds. *)
    let mvc = Vclock.freeze baseline in
    let m = Message.make ~eid:t.next_eid ~tid ~var:t.vars.(vid) ~value ~mvc in
    t.next_eid <- t.next_eid + 1;
    t.messages <- t.messages + 1;
    m

  let deliver_end3 t ~base ~len =
    match t.header with
    | None -> Error Error.Missing_header_frame
    | Some h -> (
        let limit = base + 8 + len in
        t.scan <- base + 8;
        match get_varint t limit "end tid" with
        | tid ->
            if t.scan <> limit then
              Error (Error.Bad_end_frame "trailing bytes in end frame")
            else if tid >= h.nthreads then
              Error (Error.Tid_out_of_range { tid; nthreads = h.nthreads })
            else if t.ended.(tid) then Error (Error.Duplicate_end tid)
            else begin
              t.ended.(tid) <- true;
              Ok (Some (End_of_thread tid))
            end
        | exception Bad e -> Error e)

  let deliver_header t ~base ~len =
    if t.header <> None then Error Error.Duplicate_header_frame
    else
      let* h = decode_header_body (Bytes.sub_string t.buf (base + 8) len) in
      if h.nthreads > Framed3.max_threads then
        Error (Framed3.over_thread_limit h.nthreads)
      else begin
        install_header t h;
        Ok (Some (Header h))
      end

  (* Decode one well-framed payload other than a message against the
     running stream state.  [Ok None] is internal bookkeeping (a
     vardef): nothing to deliver, parse on.  The frame bytes are
     [buf[base .. base+8+len]] and have already been consumed by the
     caller. *)
  let deliver t kind ~base ~len =
    if kind = Framed3.kind_vardef then deliver_vardef t ~base ~len
    else if kind = Framed3.kind_end then deliver_end3 t ~base ~len
    else if kind = Framed3.kind_header then deliver_header t ~base ~len
    else Error (Error.Unknown_frame_kind (Char.code kind))

  (* A frame-closed truncated tail (only possible once the transport is
     closed): everything left is one short frame. *)
  let truncated_tail t ~expected =
    let bytes = take t (available t) in
    t.skipped_bytes <- t.skipped_bytes + String.length bytes;
    t.skipped_frames <- t.skipped_frames + 1;
    poison t;
    Skip
      { error = Error.Truncated_frame { expected; got = String.length bytes }; bytes }

  let at_sentinel t =
    available t >= 3
    && Bytes.get t.buf t.pos = '\x00'
    && Bytes.get t.buf (t.pos + 1) = 'J'
    && Bytes.get t.buf (t.pos + 2) = 'F'

  (* A well-delimited frame whose payload is refused: the whole frame is
     skipped, and every delta baseline poisoned. *)
  let skip_frame t ~base ~total error =
    t.skipped_frames <- t.skipped_frames + 1;
    t.skipped_bytes <- t.skipped_bytes + total;
    poison t;
    Skip { error; bytes = Bytes.sub_string t.buf base total }

  let known_kind k =
    k = Framed3.kind_message || k = Framed3.kind_vardef || k = Framed3.kind_end
    || k = Framed3.kind_header

  let rec next t =
    if not t.preamble_done then begin
      let want = String.length Framed3.preamble in
      if available t >= want then begin
        let got = Bytes.sub_string t.buf t.pos want in
        if got = Framed3.preamble then begin
          advance t want;
          t.preamble_done <- true;
          next t
        end
        else begin
          (* Hunt for a sentinel so a corrupted prefix does not hide the
             rest of the stream.  A v2 document lands here too: its
             preamble is reported, and its text frames are unknown
             kinds, never decoded. *)
          t.preamble_done <- true;
          t.garbage_error <-
            Some
              (fun bytes ->
                Error.Bad_preamble (String.sub bytes 0 (min 32 (String.length bytes))));
          next t
        end
      end
      else if t.closed then begin
        if available t = 0 then Eof
        else begin
          let got = take t (available t) in
          t.preamble_done <- true;
          t.skipped_bytes <- t.skipped_bytes + String.length got;
          t.resyncs <- t.resyncs + 1;
          Skip { error = Error.Bad_preamble got; bytes = got }
        end
      end
      else Await
    end
    else if at_sentinel t then begin
      (* Back in sync; report any garbage span first. *)
      if Buffer.length t.garbage > 0 then flush_garbage t
      else if available t < Framed3.overhead then
        if t.closed then truncated_tail t ~expected:Framed3.overhead else Await
      else begin
        let base = t.pos in
        let kind = Bytes.get t.buf (base + 3) in
        (* An unsigned 32-bit big-endian length. *)
        let len = Int32.to_int (Bytes.get_int32_be t.buf (base + 4)) land 0xffff_ffff in
        if not (known_kind kind) then
          resync_past_sentinel t (Error.Unknown_frame_kind (Char.code kind))
        else if len > t.max_frame then
          resync_past_sentinel t (Error.Frame_too_large { length = len; limit = t.max_frame })
        else begin
          let total = Framed3.overhead + len in
          if available t < total then
            if t.closed then truncated_tail t ~expected:total else Await
          else begin
            let trailer = Bytes.get t.buf (base + total - 1) in
            if trailer <> '\n' then
              resync_past_sentinel t (Error.Bad_frame_trailer (Char.code trailer))
            else begin
              advance t total;
              (* Message frames, by far the most frequent, are tested
                 first and delivered without a result wrapper. *)
              if kind = Framed3.kind_message then
                match deliver_msg3 t ~base ~len with
                | m ->
                    t.frames <- t.frames + 1;
                    Item (Msg m)
                | exception Bad error -> skip_frame t ~base ~total error
                | exception Invalid_argument _ ->
                    skip_frame t ~base ~total
                      (Error.Inconsistent_message
                         (Printf.sprintf "v3 msg (%d-byte payload)" len))
              else
                match deliver t kind ~base ~len with
                | Ok (Some item) ->
                    t.frames <- t.frames + 1;
                    Item item
                | Ok None ->
                    (* Internal bookkeeping (vardef); keep parsing. *)
                    t.frames <- t.frames + 1;
                    next t
                | Error error -> skip_frame t ~base ~total error
            end
          end
        end
      end
    end
    else if available t = 0 && Buffer.length t.garbage = 0 then
      if t.closed then Eof else Await
    else begin
      (* Out of sync (or a partial sentinel at the chunk boundary). *)
      match hunt_sync t with
      | Some ev -> ev
      | None -> if t.closed then Eof else Await
    end

  (* The frame header itself is suspect: drop just the sentinel and hunt
     for the next one. *)
  and resync_past_sentinel t error =
    t.skipped_frames <- t.skipped_frames + 1;
    Buffer.add_string t.garbage (take t 3);
    t.garbage_error <- Some (fun _ -> error);
    next t

  let header t = t.header
  let ended_threads t = Array.copy t.ended

  let v3_state t =
    match t.header with
    | None -> None
    | Some { nthreads = width; _ } ->
        Some
          { v3_vars = Array.sub t.vars 0 t.nvars;
            v3_baselines =
              (* Lazily-unallocated rows are all-zero baselines; the
                 external invariant is full-width rows. *)
              Array.map
                (fun b -> if Array.length b = width then Array.copy b else Array.make width 0)
                t.baselines;
            v3_valid = Array.copy t.base_ok }
end

(* Strict whole-document decode of a framed stream: the first error
   aborts.  End-of-stream frames are checked but not required, so a
   truncated-but-frame-aligned recording still decodes. *)
let decode_framed text =
  let r = Reader.create () in
  Reader.feed r text;
  Reader.close r;
  let rec go header rev_msgs =
    match Reader.next r with
    | Reader.Item (Reader.Header h) -> go (Some h) rev_msgs
    | Reader.Item (Reader.Msg m) -> go header (m :: rev_msgs)
    | Reader.Item (Reader.End_of_thread _) -> go header rev_msgs
    | Reader.Skip { error; _ } -> Error error
    | Reader.Await -> assert false (* closed reader never awaits *)
    | Reader.Eof -> (
        match header with
        | None -> Error Error.Missing_header_frame
        | Some h -> Ok (h, List.rev rev_msgs))
  in
  go None []

(* {1 Files} *)

type format = V1 | Binary_v3

let sniff text =
  if String.starts_with ~prefix:Framed3.preamble text then Some Binary_v3
  else
    let first =
      match String.index_opt text '\n' with
      | Some i -> String.sub text 0 i
      | None -> text
    in
    if String.trim first = magic then Some V1 else None

let decode_any text =
  match sniff text with
  | Some Binary_v3 -> decode_framed text
  | Some V1 | None -> decode text

let write_file ?(format = Binary_v3) path header messages =
  let* doc =
    match format with
    | V1 -> Ok (encode header messages)
    | Binary_v3 -> (
        if header.nthreads > Framed3.max_threads then
          Error (Framed3.over_thread_limit header.nthreads)
        else
          match Framed3.encode header messages with
          | doc -> Ok doc
          | exception Frame_overflow { length; limit; _ } ->
              Error (Error.Frame_too_large { length; limit }))
  in
  match
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc doc)
  with
  | () -> Ok ()
  | exception Sys_error e -> Error (Error.Io e)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> decode_any text
  | exception Sys_error e -> Error (Error.Io e)
