open Trace
module M = Telemetry.Metrics

let m_writes = M.counter "checkpoint.writes"
let m_bytes = M.counter "checkpoint.bytes"
let m_level = M.gauge "checkpoint.level"

let ( let* ) = Result.bind

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

(* {1 Decoding} *)

(* Every parser returns [Result]; the first failure aborts the whole
   decode, so corruption that survives the CRC (it cannot, but belt and
   braces) still never yields a partial value. *)

let malformed fmt = Printf.ksprintf (fun s -> Error (Malformed s)) fmt

let int_field what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> malformed "bad integer %S in %s" s what

let nat_field what s =
  let* v = int_field what s in
  if v < 0 then malformed "negative %s" what else Ok v

let bools_of_bits what s =
  if String.for_all (fun c -> c = '0' || c = '1') s then
    Ok (Array.init (String.length s) (fun i -> s.[i] = '1'))
  else malformed "bad bit string %S in %s" s what

let ints_field what s =
  if s = "" then malformed "empty int list in %s" what
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | p :: rest ->
          let* v = nat_field what p in
          go (v :: acc) rest
    in
    go [] parts

let decode_bindings what tokens =
  match tokens with
  | [] -> malformed "missing binding count in %s" what
  | n :: rest ->
      let* n = nat_field what n in
      let rec go acc k = function
        | rest when k = 0 -> Ok (List.rev acc, rest)
        | x :: v :: rest -> (
            match (Wire.decode_var x, int_of_string_opt v) with
            | Ok x, Some v -> go ((x, v) :: acc) (k - 1) rest
            | _ -> malformed "bad binding in %s" what)
        | _ -> malformed "truncated bindings in %s" what
      in
      go [] n rest

let decode_msets what width tokens =
  match tokens with
  | [] -> malformed "missing monitor-state count in %s" what
  | n :: rest ->
      let* n = nat_field what n in
      if n = 0 then malformed "cut with no monitor states in %s" what
      else
        let rec go acc k = function
          | [] when k = 0 -> Ok (List.rev acc)
          | bits :: rest when k > 0 ->
              if bits <> "" && String.for_all (fun c -> c = '0' || c = '1') bits
              then go (bits :: acc) (k - 1) rest
              else malformed "bad monitor state %S in %s" bits what
          | _ -> malformed "monitor-state count disagrees with line in %s" what
        in
        let* msets = go [] n rest in
        ignore width;
        Ok msets

let decode_body body =
  let lines = String.split_on_char '\n' body in
  (* The body ends with a newline, so the split yields a trailing "". *)
  let lines =
    match List.rev lines with
    | "" :: rev -> List.rev rev
    | _ -> lines
  in
  let expect_line what = function
    | [] -> malformed "missing %s line" what
    | line :: rest -> Ok (line, rest)
  in
  let field what prefix lines =
    let* line, rest = expect_line what lines in
    let plen = String.length prefix in
    if String.length line > plen
       && String.sub line 0 plen = prefix
       && line.[plen] = ' '
    then Ok (String.sub line (plen + 1) (String.length line - plen - 1), rest)
    else malformed "expected %s line, got %S" what line
  in
  let* spec_fp, lines = field "spec" "spec" lines in
  let* nthreads_s, lines = field "threads" "threads" lines in
  let* nthreads = nat_field "threads" nthreads_s in
  if nthreads = 0 then malformed "thread count must be positive"
  else
    let rec take_inits acc lines =
      match lines with
      | line :: rest when String.length line >= 5 && String.sub line 0 5 = "init " -> (
          match String.split_on_char ' ' line with
          | [ "init"; x; v ] -> (
              match (Wire.decode_var x, int_of_string_opt v) with
              | Ok x, Some v -> take_inits ((x, v) :: acc) rest
              | _ -> malformed "bad init line %S" line)
          | _ -> malformed "bad init line %S" line)
      | _ -> Ok (List.rev acc, lines)
    in
    let* init, lines = take_inits [] lines in
    let* pos_s, lines = field "position" "position" lines in
    let* position = nat_field "position" pos_s in
    let* eid_s, lines = field "next-eid" "next-eid" lines in
    let* next_eid = nat_field "next-eid" eid_s in
    let* rs, lines = field "reader-stats" "reader-stats" lines in
    let* reader_stats =
      match String.split_on_char ' ' rs with
      | [ a; b; c; d; e ] ->
          let* frames = nat_field "reader-stats" a in
          let* messages = nat_field "reader-stats" b in
          let* skipped_frames = nat_field "reader-stats" c in
          let* resyncs = nat_field "reader-stats" d in
          let* skipped_bytes = nat_field "reader-stats" e in
          Ok
            { Wire.Reader.frames; messages; skipped_frames; resyncs; skipped_bytes }
      | _ -> malformed "bad reader-stats line %S" rs
    in
    let* re, lines = field "reader-ended" "reader-ended" lines in
    let* reader_ended = bools_of_bits "reader-ended" re in
    (* The v3 group: the reader's variable intern table and per-thread
       delta baselines (with their validity bits), without which a
       resumed reader could not decode another delta frame.  A body
       without it was taken mid-way through a wire-v2 stream, which no
       reader decodes any more. *)
    let* v3, lines =
      match lines with
      | line :: _
        when String.length line >= 8 && String.sub line 0 8 = "v3-vars " ->
          let* nv_s, lines = field "v3-vars" "v3-vars" lines in
          let* nv = nat_field "v3-vars" nv_s in
          if nv > 1 lsl 20 then malformed "v3-vars count %d too large" nv
          else
            let rec take_vars acc k lines =
              if k = 0 then Ok (List.rev acc, lines)
              else
                let* v, lines = field "v3-var" "v3-var" lines in
                match Wire.decode_var v with
                | Ok name -> take_vars (name :: acc) (k - 1) lines
                | Error e ->
                    malformed "bad v3-var line: %s" (Wire.Error.to_string e)
            in
            let* vars, lines = take_vars [] nv lines in
            let* vb, lines = field "v3-valid" "v3-valid" lines in
            let* valid = bools_of_bits "v3-valid" vb in
            if Array.length valid <> nthreads then
              malformed "v3-valid width disagrees with %d threads" nthreads
            else
              let rec take_bases acc k lines =
                if k = 0 then Ok (List.rev acc, lines)
                else
                  let* b, lines = field "v3-base" "v3-base" lines in
                  let* a = ints_field "v3-base" b in
                  if Array.length a <> nthreads then
                    malformed "v3-base width disagrees with %d threads" nthreads
                  else take_bases (a :: acc) (k - 1) lines
              in
              let* bases, lines = take_bases [] nthreads lines in
              Ok
                ( Some
                    { Wire.Reader.v3_vars = Array.of_list vars;
                      v3_baselines = Array.of_list bases;
                      v3_valid = valid },
                  lines )
      | _ ->
          malformed
            "no v3-vars group: the checkpoint of a wire v2 stream, which is no \
             longer supported"
    in
    let* ss, lines = field "stream-stats" "stream-stats" lines in
    let* ends, quarantined, peak_buffered =
      match String.split_on_char ' ' ss with
      | [ a; b; c ] ->
          let* ends = nat_field "stream-stats" a in
          let* quarantined = nat_field "stream-stats" b in
          let* peak = nat_field "stream-stats" c in
          Ok (ends, quarantined, peak)
      | _ -> malformed "bad stream-stats line %S" ss
    in
    (* The degraded marker is present iff the bundle shed its lattice
       engine mid-stream; absent in every checkpoint written before
       budgets existed, so old files decode unchanged. *)
    let* degraded, lines =
      match lines with
      | line :: _
        when String.length line >= 9 && String.sub line 0 9 = "degraded " ->
          let* d, lines = field "degraded" "degraded" lines in
          let* parsed =
            match String.split_on_char ' ' d with
            | [ from; reason; at_event; violated ] ->
                let* at_event = nat_field "degraded at_event" at_event in
                let* violated = nat_field "degraded violated" violated in
                if violated > 1 then malformed "bad violated flag in degraded line"
                else if from = "" || reason = "" then
                  malformed "empty token in degraded line"
                else
                  Ok
                    { Predict.Engines.d_from = from;
                      d_reason = reason;
                      d_at_event = at_event;
                      d_violated = violated = 1 }
            | _ -> malformed "bad degraded line %S" d
          in
          Ok (Some parsed, lines)
      | _ -> Ok (None, lines)
    in
    (* Engine sub-blocks (absent in files written before the registry,
       which always carry the online group instead). *)
    let rec take_engines acc lines =
      match lines with
      | line :: rest when String.length line >= 7 && String.sub line 0 7 = "engine "
        -> (
          match String.split_on_char ' ' line with
          | [ "engine"; name; n ] ->
              let* n = nat_field "engine" n in
              if name = "" then malformed "empty engine name"
              else if List.mem_assoc name acc then
                malformed "duplicate engine block %S" name
              else
                let rec take k payload lines =
                  if k = 0 then Ok (List.rev payload, lines)
                  else
                    match lines with
                    | [] -> malformed "truncated engine block %S" name
                    | l :: rest -> take (k - 1) (l :: payload) rest
                in
                let* payload, lines = take n [] rest in
                take_engines ((name, payload) :: acc) lines
          | _ -> malformed "bad engine line %S" line)
      | _ -> Ok (List.rev acc, lines)
    in
    let* engines, lines = take_engines [] lines in
    if Array.length reader_ended <> nthreads then
      malformed "reader-ended bit width disagrees with %d threads" nthreads
    else
      let finish online =
        Ok
          { ck_header = { Wire.nthreads; init };
            ck_spec_fp = spec_fp;
            ck_position = position;
            ck_next_eid = next_eid;
            ck_reader_stats = reader_stats;
            ck_reader_ended = reader_ended;
            ck_v3 = v3;
            ck_ends = ends;
            ck_quarantined = quarantined;
            ck_peak_buffered = peak_buffered;
            ck_engines = engines;
            ck_online = online;
            ck_degraded = degraded }
      in
      match lines with
      | [] ->
          if engines = [] then malformed "checkpoint carries no engine state"
          else finish None
      | _ when degraded <> None ->
          malformed "checkpoint is degraded yet carries lattice engine state"
      | _ ->
    let* ol, lines = field "online" "online" lines in
    let* level, done_, retired, peak_cuts, peak_entries, steps =
      match String.split_on_char ' ' ol with
      | [ a; b; c; d; e; f ] ->
          let* level = nat_field "online" a in
          let* done_ = nat_field "online" b in
          if done_ > 1 then malformed "bad done flag in online line"
          else
            let* retired = nat_field "online" c in
            let* peak_cuts = nat_field "online" d in
            let* peak_entries = nat_field "online" e in
            let* steps = nat_field "online" f in
            Ok (level, done_ = 1, retired, peak_cuts, peak_entries, steps)
      | _ -> malformed "bad online line %S" ol
    in
    let int_array what lines =
      let* s, lines = field what what lines in
      let* a = ints_field what s in
      if Array.length a <> nthreads then
        malformed "%s width %d disagrees with %d threads" what (Array.length a)
          nthreads
      else Ok (a, lines)
    in
    let* prefix, lines = int_array "prefix" lines in
    let* beyond, lines = int_array "beyond" lines in
    let* gc_floor, lines = int_array "gc-floor" lines in
    let* en, lines = field "ended" "ended" lines in
    let* ended = bools_of_bits "ended" en in
    if Array.length ended <> nthreads then
      malformed "ended bit width disagrees with %d threads" nthreads
    else
      let rec take_msgs acc lines =
        match lines with
        | line :: rest when String.length line >= 5 && String.sub line 0 5 = "bmsg " -> (
            match String.index_from_opt line 5 ' ' with
            | None -> malformed "bad bmsg line %S" line
            | Some sp -> (
                let* eid = nat_field "bmsg" (String.sub line 5 (sp - 5)) in
                let rest_line = String.sub line (sp + 1) (String.length line - sp - 1) in
                match Wire.decode_message ~expect_width:nthreads rest_line with
                | Ok m -> take_msgs ({ m with Message.eid } :: acc) rest
                | Error e -> malformed "bad bmsg line: %s" (Wire.Error.to_string e)))
        | _ -> Ok (List.rev acc, lines)
      in
      let* store, lines = take_msgs [] lines in
      let cut_field what s =
        let* cut = ints_field what s in
        if Array.length cut <> nthreads then
          malformed "%s cut width disagrees with %d threads" what nthreads
        else Ok cut
      in
      let rec take_fronts acc lines =
        match lines with
        | line :: rest when String.length line >= 6 && String.sub line 0 6 = "front " -> (
            match String.split_on_char ' ' line with
            | "front" :: cut :: tokens ->
                let* cut = cut_field "front" cut in
                let* bindings, tokens = decode_bindings "front" tokens in
                let* msets = decode_msets "front" nthreads tokens in
                take_fronts ((cut, bindings, msets) :: acc) rest
            | _ -> malformed "bad front line %S" line)
        | _ -> Ok (List.rev acc, lines)
      in
      let* frontier, lines = take_fronts [] lines in
      if frontier = [] then malformed "checkpoint carries no frontier"
      else
        let rec take_viols acc lines =
          match lines with
          | line :: rest when String.length line >= 5 && String.sub line 0 5 = "viol " -> (
              match String.split_on_char ' ' line with
              | "viol" :: cut :: lvl :: tokens -> (
                  let* cut = cut_field "viol" cut in
                  let* lvl = nat_field "viol level" lvl in
                  let* bindings, tokens = decode_bindings "viol" tokens in
                  match tokens with
                  | [ bits ]
                    when bits <> ""
                         && String.for_all (fun c -> c = '0' || c = '1') bits ->
                      take_viols ((cut, lvl, bindings, bits) :: acc) rest
                  | _ -> malformed "bad viol line %S" line)
              | _ -> malformed "bad viol line %S" line)
          | [] -> Ok (List.rev acc)
          | line :: _ -> malformed "unrecognized line %S" line
        in
        let* violations = take_viols [] lines in
        finish
          (Some
             { Predict.Online.snap_nthreads = nthreads;
               snap_level = level;
               snap_done = done_;
               snap_prefix = prefix;
               snap_beyond = beyond;
               snap_gc_floor = gc_floor;
               snap_ended = ended;
               snap_store = store;
               snap_frontier = frontier;
               snap_violations = violations;
               snap_retired_cuts = retired;
               snap_peak_frontier_cuts = peak_cuts;
               snap_peak_frontier_entries = peak_entries;
               snap_monitor_steps = steps })

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
