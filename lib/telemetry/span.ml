(* Chrome-trace-format span writer.  One mutex-protected channel, one
   span stack per domain (DLS), ids from a global atomic. *)

type sink = { oc : out_channel; mutex : Mutex.t; t0 : float }

let sink : sink option Atomic.t = Atomic.make None
let enabled () = match Atomic.get sink with None -> false | Some _ -> true

let next_id = Atomic.make 1
let stack_key : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let now () = Unix.gettimeofday ()
let now_us () = now () *. 1e6

let enable oc =
  if enabled () then invalid_arg "Telemetry.Span.enable: already tracing";
  output_string oc "[\n";
  Atomic.set sink (Some { oc; mutex = Mutex.create (); t0 = now () })

let disable () =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      Atomic.set sink None;
      Mutex.lock s.mutex;
      flush s.oc;
      Mutex.unlock s.mutex

let escape s =
  if String.exists (fun c -> c = '"' || c = '\\' || Char.code c < 0x20) s then
    String.concat ""
      (List.map
         (fun c ->
           match c with
           | '"' -> "\\\""
           | '\\' -> "\\\\"
           | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
           | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  else s

let emit s ~ph ~name ~id ~parent =
  let ts = (now () -. s.t0) *. 1e6 in
  let tid = (Domain.self () :> int) in
  let line =
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"jmpax\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":0,\
       \"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d}},\n"
      (escape name) ph ts tid id parent
  in
  Mutex.lock s.mutex;
  output_string s.oc line;
  Mutex.unlock s.mutex

let with_ ~name f =
  match Atomic.get sink with
  | None -> f ()
  | Some s ->
      let id = Atomic.fetch_and_add next_id 1 in
      let stack = Domain.DLS.get stack_key in
      let parent = match !stack with p :: _ -> p | [] -> 0 in
      emit s ~ph:'B' ~name ~id ~parent;
      stack := id :: !stack;
      Fun.protect
        ~finally:(fun () ->
          (match !stack with
          | top :: rest when top = id -> stack := rest
          | _ ->
              (* Unbalanced exits can only come from a bug in this
                 module's own push/pop discipline. *)
              stack := List.filter (fun x -> x <> id) !stack);
          (* The sink may have been disabled while the span was open;
             emit the end event only if tracing is still on. *)
          match Atomic.get sink with
          | Some s -> emit s ~ph:'E' ~name ~id ~parent
          | None -> ())
        f

let instant ~name () =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      let id = Atomic.fetch_and_add next_id 1 in
      let stack = Domain.DLS.get stack_key in
      let parent = match !stack with p :: _ -> p | [] -> 0 in
      emit s ~ph:'i' ~name ~id ~parent
