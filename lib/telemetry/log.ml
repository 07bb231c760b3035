(* Structured operational logging: one greppable line per lifecycle
   event (accept, reject, evict, redial, checkpoint, drain, ...).
   Global single-writer state — the serve loop is single-threaded and
   the stream CLI logs rarely; the sink call itself is made under a
   mutex so concurrent writers (bench threads) never interleave bytes. *)

type level = Debug | Info | Warn | Error
type format = Text | Json

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

(* Library default is Warn so embedding jmpax stays quiet; the CLIs
   raise it to Info (the --log-level default) at startup. *)
let cur_level = Atomic.make (severity Warn)
let cur_format = ref Text
let sink = ref prerr_endline
let emit_mutex = Mutex.create ()

(* Monotone timestamps: seconds since the first log call (wall clocks
   can step backwards; an offset from a fixed base cannot, short of the
   host clock itself jumping — and an injected clock in tests is fully
   deterministic). *)
let base = ref None
let custom_clock = ref None

let now () =
  match !custom_clock with
  | Some f -> f ()
  | None -> (
      let t = Unix.gettimeofday () in
      match !base with
      | Some b -> t -. b
      | None ->
          base := Some t;
          0.0)

let set_level l = Atomic.set cur_level (severity l)
let level () =
  match Atomic.get cur_level with
  | 0 -> Debug
  | 1 -> Info
  | 2 -> Warn
  | _ -> Error

let set_format f = cur_format := f
let set_sink f = sink := f
let set_clock f = custom_clock := Some f
let enabled l = severity l >= Atomic.get cur_level

let needs_quoting s =
  s = ""
  || String.exists
       (fun c -> c = ' ' || c = '"' || c = '\\' || c = '\n' || c = '=')
       s

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let text_value s = if needs_quoting s then quote s else s

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let render l ~event ~sid ~fields ~msg =
  let ts = now () in
  match !cur_format with
  | Text ->
      let buf = Buffer.create 128 in
      Buffer.add_string buf (Printf.sprintf "ts=%.3f level=%s event=%s" ts (level_name l) event);
      (match sid with
      | Some s -> Buffer.add_string buf (" sid=" ^ text_value s)
      | None -> ());
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf " %s=%s" k (text_value v)))
        fields;
      if msg <> "" then Buffer.add_string buf (" msg=" ^ quote msg);
      Buffer.contents buf
  | Json ->
      let buf = Buffer.create 128 in
      Buffer.add_string buf
        (Printf.sprintf "{\"ts\":%.3f,\"level\":%s,\"event\":%s" ts
           (json_string (level_name l)) (json_string event));
      (match sid with
      | Some s -> Buffer.add_string buf (",\"sid\":" ^ json_string s)
      | None -> ());
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf (Printf.sprintf ",%s:%s" (json_string k) (json_string v)))
        fields;
      if msg <> "" then Buffer.add_string buf (",\"msg\":" ^ json_string msg);
      Buffer.add_char buf '}';
      Buffer.contents buf

let log l ?sid ~event ?(fields = []) msg =
  if enabled l then begin
    let line = render l ~event ~sid ~fields ~msg in
    Mutex.lock emit_mutex;
    (try !sink line with _ -> ());
    Mutex.unlock emit_mutex
  end

let debug ?sid ~event ?fields msg = log Debug ?sid ~event ?fields msg
let info ?sid ~event ?fields msg = log Info ?sid ~event ?fields msg
let warn ?sid ~event ?fields msg = log Warn ?sid ~event ?fields msg
let error ?sid ~event ?fields msg = log Error ?sid ~event ?fields msg
