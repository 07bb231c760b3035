open Trace
module M = Telemetry.Metrics

let m_writes = M.counter "checkpoint.writes"
let m_bytes = M.counter "checkpoint.bytes"
let m_level = M.gauge "checkpoint.level"

type t = {
  ck_header : Wire.header;
  ck_spec_fp : string;
  ck_position : int;
  ck_next_eid : int;
  ck_reader_stats : Wire.Reader.stats;
  ck_reader_ended : bool array;
  ck_v3 : Wire.Reader.v3_state option;
  ck_ends : int;
  ck_quarantined : int;
  ck_peak_buffered : int;
  ck_engines : (string * string list) list;
  ck_online : Predict.Online.snapshot option;
  ck_degraded : Predict.Engines.degraded option;
}

type error =
  | Bad_magic of string
  | Bad_envelope of string
  | Truncated of { expected : int; got : int }
  | Crc_mismatch of { expected : string; got : string }
  | Malformed of string
  | Spec_mismatch of { expected : string; got : string }
  | Io of string

let error_to_string = function
  | Bad_magic s -> Printf.sprintf "bad checkpoint magic %S" s
  | Bad_envelope s -> Printf.sprintf "bad checkpoint envelope %S" s
  | Truncated { expected; got } ->
      Printf.sprintf "truncated checkpoint: envelope promises %d body bytes, got %d"
        expected got
  | Crc_mismatch { expected; got } ->
      Printf.sprintf "checkpoint CRC mismatch (stored %s, computed %s): file corrupted"
        expected got
  | Malformed s -> Printf.sprintf "malformed checkpoint: %s" s
  | Spec_mismatch { expected; got } ->
      Printf.sprintf
        "checkpoint was taken under a different specification (fingerprint %s, \
         current spec is %s)"
        expected got
  | Io s -> s

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

(* {1 CRC32 (IEEE 802.3, reflected)}

   Slicing-by-8: table [k] (entries [256k .. 256k+255]) advances a byte
   through [k] further zero bytes, so eight bytes take eight lookups
   that do not depend on each other, and one pass over the CRC. *)

let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

let crc32 s =
  let t = Lazy.force crc_tables in
  let len = String.length s in
  let c = ref 0xFFFFFFFF and i = ref 0 in
  while !i + 8 <= len do
    let j = !i in
    let x =
      !c
      lxor (Char.code (String.unsafe_get s j)
           lor (Char.code (String.unsafe_get s (j + 1)) lsl 8)
           lor (Char.code (String.unsafe_get s (j + 2)) lsl 16)
           lor (Char.code (String.unsafe_get s (j + 3)) lsl 24))
    in
    c :=
      t.((7 * 256) + (x land 0xff))
      lxor t.((6 * 256) + ((x lsr 8) land 0xff))
      lxor t.((5 * 256) + ((x lsr 16) land 0xff))
      lxor t.((4 * 256) + (x lsr 24))
      lxor t.((3 * 256) + Char.code (String.unsafe_get s (j + 4)))
      lxor t.((2 * 256) + Char.code (String.unsafe_get s (j + 5)))
      lxor t.(256 + Char.code (String.unsafe_get s (j + 6)))
      lxor t.(Char.code (String.unsafe_get s (j + 7)));
    i := j + 8
  done;
  for j = !i to len - 1 do
    c := t.((!c lxor Char.code (String.unsafe_get s j)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc_hex s = Printf.sprintf "%08x" (crc32 s)

let fingerprint spec = crc_hex (Format.asprintf "%a" Pastltl.Formula.pp spec)

(* {1 Encoding} *)

let magic = "jmpax-ckpt 1"

let bits_of_bools a =
  String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')

(* The per-message and per-cut lines go straight into the body buffer:
   a checkpoint can hold tens of thousands of them. *)
let add_ints buf a =
  Array.iteri
    (fun i k ->
      if i > 0 then Buffer.add_char buf ',';
      Vclock.add_int buf k)
    a

let encode_bindings buf bindings =
  Vclock.add_int buf (List.length bindings);
  List.iter
    (fun (x, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Wire.encode_var x);
      Buffer.add_char buf ' ';
      Vclock.add_int buf v)
    bindings

let encode_body t =
  let r = t.ck_reader_stats in
  let stored =
    match t.ck_online with
    | Some s -> List.length s.Predict.Online.snap_store
    | None -> 0
  in
  let buf = Buffer.create (1024 + (stored * (32 + (8 * t.ck_header.Wire.nthreads)))) in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let ints_line key a =
    Buffer.add_string buf key;
    Buffer.add_char buf ' ';
    add_ints buf a;
    Buffer.add_char buf '\n'
  in
  p "spec %s" t.ck_spec_fp;
  p "threads %d" t.ck_header.Wire.nthreads;
  List.iter
    (fun (x, v) -> p "init %s %d" (Wire.encode_var x) v)
    t.ck_header.Wire.init;
  p "position %d" t.ck_position;
  p "next-eid %d" t.ck_next_eid;
  p "reader-stats %d %d %d %d %d" r.Wire.Reader.frames r.Wire.Reader.messages
    r.Wire.Reader.skipped_frames r.Wire.Reader.resyncs r.Wire.Reader.skipped_bytes;
  p "reader-ended %s" (bits_of_bools t.ck_reader_ended);
  (match t.ck_v3 with
  | None -> ()
  | Some v3 ->
      p "v3-vars %d" (Array.length v3.Wire.Reader.v3_vars);
      Array.iter (fun x -> p "v3-var %s" (Wire.encode_var x)) v3.Wire.Reader.v3_vars;
      p "v3-valid %s" (bits_of_bools v3.Wire.Reader.v3_valid);
      Array.iter
        (ints_line "v3-base")
        v3.Wire.Reader.v3_baselines);
  p "stream-stats %d %d %d" t.ck_ends t.ck_quarantined t.ck_peak_buffered;
  (* Degraded marker: omitted entirely when the bundle never degraded so
     pre-budget checkpoints stay byte-identical.  The from/reason tokens
     never contain spaces (see {!Budget.breach_reason}). *)
  (match t.ck_degraded with
  | None -> ()
  | Some d ->
      if
        String.exists (fun c -> c = ' ' || c = '\n') d.Predict.Engines.d_from
        || String.exists (fun c -> c = ' ' || c = '\n') d.Predict.Engines.d_reason
      then invalid_arg "Checkpoint.encode: degraded token contains whitespace";
      p "degraded %s %s %d %d" d.Predict.Engines.d_from d.Predict.Engines.d_reason
        d.Predict.Engines.d_at_event
        (if d.Predict.Engines.d_violated then 1 else 0));
  (* Versioned engine sub-blocks: the payload lines are opaque to the
     checkpoint format (each engine versions its own first line) and are
     framed by an exact line count, so they can never be confused with a
     checkpoint keyword. *)
  List.iter
    (fun (name, lines) ->
      List.iter
        (fun l ->
          if String.contains l '\n' then
            invalid_arg "Checkpoint.encode: engine snapshot line contains newline")
        lines;
      p "engine %s %d" name (List.length lines);
      List.iter (fun l -> p "%s" l) lines)
    t.ck_engines;
  (match t.ck_online with
  | None -> ()
  | Some s ->
      p "online %d %d %d %d %d %d" s.Predict.Online.snap_level
        (if s.Predict.Online.snap_done then 1 else 0)
        s.Predict.Online.snap_retired_cuts s.Predict.Online.snap_peak_frontier_cuts
        s.Predict.Online.snap_peak_frontier_entries
        s.Predict.Online.snap_monitor_steps;
      ints_line "prefix" s.Predict.Online.snap_prefix;
      ints_line "beyond" s.Predict.Online.snap_beyond;
      ints_line "gc-floor" s.Predict.Online.snap_gc_floor;
      p "ended %s" (bits_of_bools s.Predict.Online.snap_ended);
      List.iter
        (fun m ->
          Buffer.add_string buf "bmsg ";
          Vclock.add_int buf m.Message.eid;
          Buffer.add_char buf ' ';
          Wire.add_message buf m;
          Buffer.add_char buf '\n')
        s.Predict.Online.snap_store;
      List.iter
        (fun (cut, bindings, msets) ->
          Buffer.add_string buf "front ";
          add_ints buf cut;
          Buffer.add_char buf ' ';
          encode_bindings buf bindings;
          Buffer.add_char buf ' ';
          Vclock.add_int buf (List.length msets);
          List.iter
            (fun bits ->
              Buffer.add_char buf ' ';
              Buffer.add_string buf bits)
            msets;
          Buffer.add_char buf '\n')
        s.Predict.Online.snap_frontier;
      List.iter
        (fun (cut, level, bindings, bits) ->
          Buffer.add_string buf "viol ";
          add_ints buf cut;
          Buffer.add_char buf ' ';
          Vclock.add_int buf level;
          Buffer.add_char buf ' ';
          encode_bindings buf bindings;
          Buffer.add_char buf ' ';
          Buffer.add_string buf bits;
          Buffer.add_char buf '\n')
        s.Predict.Online.snap_violations);
  Buffer.contents buf

let envelope body =
  Printf.sprintf "%s\nlen %d crc %s\n" magic (String.length body) (crc_hex body)

let encode t =
  let body = encode_body t in
  envelope body ^ body

(* {1 Decoding}

   One pass over an {!Predict.Engine.Snapshot.reader}, the codec the
   engine blocks inside the body use too.  Every reader raises
   [Invalid_argument] on a field it refuses; [decode_body] turns the
   first one into [Malformed], so a body that survives the CRC but not
   its fields (it cannot, but belt and braces) still never yields a
   partial value. *)

let read_body r =
  let open Predict.Engine.Snapshot in
  let fields ?n key = fields ~what:key ~key ?n r in
  let single key = (fields ~n:1 key).(0) in
  let var what s =
    match Wire.decode_var s with
    | Ok x -> x
    | Error e -> invalid_arg (what ^ ": " ^ Wire.Error.to_string e)
  in
  let flag what b = if b > 1 then invalid_arg (what ^ ": bad flag") else b = 1 in
  let at what f i =
    if i < Array.length f then f.(i) else invalid_arg (what ^ ": line ends early")
  in
  let spec_fp = single "spec" in
  let nthreads = nat ~what:"threads" (single "threads") in
  if nthreads = 0 then invalid_arg "thread count must be positive";
  let init =
    many ~key:"init" r (fun () ->
        let f = fields ~n:2 "init" in
        (var "init" f.(0), int ~what:"init" f.(1)))
  in
  let position = nat ~what:"position" (single "position") in
  let next_eid = nat ~what:"next-eid" (single "next-eid") in
  let rs = Array.map (nat ~what:"reader-stats") (fields ~n:5 "reader-stats") in
  let reader_stats =
    { Wire.Reader.frames = rs.(0);
      messages = rs.(1);
      skipped_frames = rs.(2);
      resyncs = rs.(3);
      skipped_bytes = rs.(4) }
  in
  let reader_ended = bools ~what:"reader-ended" ~width:nthreads (single "reader-ended") in
  (* The v3 group: the reader's variable intern table and per-thread
     delta baselines (with their validity bits), without which a resumed
     reader could not decode another delta frame.  A body without it was
     taken mid-way through a wire-v2 stream, which no reader decodes any
     more. *)
  if next_key r <> Some "v3-vars" then
    invalid_arg
      "no v3-vars group: the checkpoint of a wire v2 stream, which is no longer supported";
  let nvars = nat ~what:"v3-vars" (single "v3-vars") in
  if nvars > 1 lsl 20 then invalid_arg (Printf.sprintf "v3-vars count %d too large" nvars);
  let v3_vars = Array.init nvars (fun _ -> var "v3-var" (single "v3-var")) in
  let v3_valid = bools ~what:"v3-valid" ~width:nthreads (single "v3-valid") in
  let v3_baselines =
    Array.init nthreads (fun _ -> nats ~what:"v3-base" ~width:nthreads (single "v3-base"))
  in
  let ss = Array.map (nat ~what:"stream-stats") (fields ~n:3 "stream-stats") in
  (* The degraded marker is present iff the bundle shed its lattice
     engine mid-stream; absent in every checkpoint written before budgets
     existed, so old files decode unchanged. *)
  let degraded =
    if next_key r <> Some "degraded" then None
    else
      let f = fields ~n:4 "degraded" in
      Some
        { Predict.Engines.d_from = f.(0);
          d_reason = f.(1);
          d_at_event = nat ~what:"degraded" f.(2);
          d_violated = flag "degraded" (nat ~what:"degraded" f.(3)) }
  in
  (* Engine sub-blocks: opaque payload lines framed by an exact count
     (absent in files written before the registry, which always carry
     the online group instead). *)
  let engines =
    many ~key:"engine" r (fun () ->
        let f = fields ~n:2 "engine" in
        let name = f.(0) in
        (name, List.init (nat ~what:"engine" f.(1)) (fun _ -> line ~what:name r)))
  in
  let names = List.map fst engines in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "duplicate engine block";
  let online =
    if eof r then
      if engines = [] then invalid_arg "checkpoint carries no engine state" else None
    else if degraded <> None then
      invalid_arg "checkpoint is degraded yet carries lattice engine state"
    else
      let o = Array.map (nat ~what:"online") (fields ~n:6 "online") in
      let per_thread key = nats ~what:key ~width:nthreads (single key) in
      let prefix = per_thread "prefix" in
      let beyond = per_thread "beyond" in
      let gc_floor = per_thread "gc-floor" in
      let ended = bools ~what:"ended" ~width:nthreads (single "ended") in
      let store =
        many ~key:"bmsg" r (fun () ->
            match Array.to_list (fields "bmsg") with
            | eid :: msg -> (
                let eid = nat ~what:"bmsg" eid in
                match Wire.decode_message ~expect_width:nthreads (String.concat " " msg) with
                | Ok m -> { m with Message.eid }
                | Error e -> invalid_arg ("bmsg: " ^ Wire.Error.to_string e))
            | [] -> invalid_arg "bmsg: no event id")
      in
      (* A global state's bindings: a count, then that many name/value
         pairs from field [i] on; returns them and the next field. *)
      let bindings what f i =
        let n = nat ~what (at what f i) in
        if n > (Array.length f - i - 1) / 2 then invalid_arg (what ^ ": truncated bindings");
        (List.init n (fun k -> (var what f.(i + 1 + (2 * k)), int ~what f.(i + 2 + (2 * k)))),
         i + 1 + (2 * n))
      in
      let frontier =
        many ~key:"front" r (fun () ->
            let f = fields "front" in
            let bs, i = bindings "front" f 1 in
            let k = nat ~what:"front" (at "front" f i) in
            if k = 0 || Array.length f <> i + 1 + k then
              invalid_arg "front: monitor-state count disagrees with line";
            ( nats ~what:"front" ~width:nthreads f.(0),
              bs,
              List.init k (fun j -> bits ~what:"front" f.(i + 1 + j)) ))
      in
      if frontier = [] then invalid_arg "checkpoint carries no frontier";
      let violations =
        many ~key:"viol" r (fun () ->
            let f = fields "viol" in
            let bs, i = bindings "viol" f 2 in
            if Array.length f <> i + 1 then invalid_arg "viol: bad monitor state";
            ( nats ~what:"viol" ~width:nthreads f.(0),
              nat ~what:"viol" f.(1),
              bs,
              bits ~what:"viol" f.(i) ))
      in
      if not (eof r) then
        invalid_arg (Printf.sprintf "unrecognized line %S" (line ~what:"body" r));
      Some
        { Predict.Online.snap_nthreads = nthreads;
          snap_level = o.(0);
          snap_done = flag "online" o.(1);
          snap_prefix = prefix;
          snap_beyond = beyond;
          snap_gc_floor = gc_floor;
          snap_ended = ended;
          snap_store = store;
          snap_frontier = frontier;
          snap_violations = violations;
          snap_retired_cuts = o.(2);
          snap_peak_frontier_cuts = o.(3);
          snap_peak_frontier_entries = o.(4);
          snap_monitor_steps = o.(5) }
  in
  { ck_header = { Wire.nthreads; init };
    ck_spec_fp = spec_fp;
    ck_position = position;
    ck_next_eid = next_eid;
    ck_reader_stats = reader_stats;
    ck_reader_ended = reader_ended;
    ck_v3 = Some { Wire.Reader.v3_vars; v3_baselines; v3_valid };
    ck_ends = ss.(0);
    ck_quarantined = ss.(1);
    ck_peak_buffered = ss.(2);
    ck_engines = engines;
    ck_online = online;
    ck_degraded = degraded }

let decode_body body =
  (* The body ends with a newline, so the split yields a trailing "". *)
  let lines =
    match List.rev (String.split_on_char '\n' body) with
    | "" :: rev -> List.rev rev
    | rev -> List.rev rev
  in
  match read_body (Predict.Engine.Snapshot.reader lines) with
  | t -> Ok t
  | exception Invalid_argument msg -> Error (Malformed msg)
let decode text =
  match String.index_opt text '\n' with
  | None -> Error (Bad_magic text)
  | Some i ->
      let first = String.sub text 0 i in
      if first <> magic then Error (Bad_magic first)
      else begin
        match String.index_from_opt text (i + 1) '\n' with
        | None -> Error (Bad_envelope (String.sub text (i + 1) (String.length text - i - 1)))
        | Some j -> (
            let envelope = String.sub text (i + 1) (j - i - 1) in
            match String.split_on_char ' ' envelope with
            | [ "len"; len; "crc"; crc ]
              when String.length crc = 8
                   && String.for_all
                        (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
                        crc -> (
                match int_of_string_opt len with
                | Some len when len >= 0 ->
                    let got = String.length text - j - 1 in
                    if got <> len then Error (Truncated { expected = len; got })
                    else
                      let body = String.sub text (j + 1) len in
                      let computed = crc_hex body in
                      if computed <> crc then
                        Error (Crc_mismatch { expected = crc; got = computed })
                      else decode_body body
                | _ -> Error (Bad_envelope envelope))
            | _ -> Error (Bad_envelope envelope))
      end

(* {1 Files} *)

let write path t =
  let body = encode_body t in
  let head = envelope body in
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc head;
        output_string oc body);
    Sys.rename tmp path
  with
  | () ->
      if M.enabled () then begin
        M.incr m_writes;
        M.add m_bytes (String.length head + String.length body);
        match t.ck_online with
        | Some s -> M.set m_level s.Predict.Online.snap_level
        | None -> ()
      end;
      Ok ()
  | exception Sys_error e -> Error (Io e)

let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> decode text
  | exception Sys_error e -> Error (Io e)

let validate ~spec t =
  let got = fingerprint spec in
  if got = t.ck_spec_fp then Ok ()
  else Error (Spec_mismatch { expected = t.ck_spec_fp; got })

let reader ?max_frame t =
  match t.ck_v3 with
  | None -> invalid_arg "Checkpoint.reader: no wire-v3 reader state"
  | Some v3 ->
      Wire.Reader.resume ?max_frame ~v3 ~header:t.ck_header ~ended:t.ck_reader_ended
        ~next_eid:t.ck_next_eid ~stats:t.ck_reader_stats ~consumed:t.ck_position ()
