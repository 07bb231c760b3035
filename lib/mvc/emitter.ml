open Trace
module M = Telemetry.Metrics

let m_events = M.counter "mvc.events"
let m_messages = M.counter "mvc.messages"

(* [mvc.messages.tN] handles, resolved once per thread index for the
   whole process and grown on demand; interning the same name twice
   yields the same handle, so a racing grow is harmless. *)
let per_tid_counters = ref [||]

let per_tid_counter i =
  let a = !per_tid_counters in
  if i < Array.length a then a.(i)
  else begin
    let grown =
      Array.init (i + 1) (fun j ->
          if j < Array.length a then a.(j)
          else M.counter (Printf.sprintf "mvc.messages.t%d" j))
    in
    per_tid_counters := grown;
    grown.(i)
  end

type t = {
  builder : Exec.builder;
  algorithm : Algorithm.t;
  vars : Types.var array;
  sink : Message.t -> unit;
  mutable rev_messages : Message.t list;
}

let create ?clock:_ ?(vars = [||]) ~nthreads ~init ~relevance ?(sink = fun _ -> ()) () =
  let algorithm = Algorithm.create ~nthreads ~relevance in
  Array.iteri
    (fun id x ->
      if Algorithm.intern algorithm x <> id then
        invalid_arg ("Emitter.create: variable " ^ x ^ " listed twice"))
    vars;
  { builder = Exec.builder ~nthreads ~init;
    algorithm;
    vars;
    sink;
    rev_messages = [] }

let process t var (e : Event.t) = Algorithm.process_at t.algorithm e.tid ~var e.kind

(* [var] is the event's variable id (unused for internal events). *)
let dispatch t var (e : Event.t) =
  if M.enabled () then M.incr m_events;
  let mvc =
    (* Algorithm A step: the per-event span is gated here so the
       closure under [with_] only exists when tracing is on. *)
    if Telemetry.Span.enabled () then
      Telemetry.Span.with_ ~name:"mvc.algorithm_a" (fun () -> process t var e)
    else process t var e
  in
  match mvc with
  | None -> ()
  | Some mvc ->
      let var, value =
        match e.kind with
        | Event.Write (x, v) -> (x, v)
        | Event.Read (x, v) -> (Types.read_var x, v)
        | Event.Internal ->
            (* A relevance filter marking internal events relevant would
               yield a message with no state update; JMPaX never does
               this, and neither do our filters. *)
            invalid_arg "Emitter: relevant internal events are not supported"
      in
      let m = Message.make ~eid:e.eid ~tid:e.tid ~var ~value ~mvc in
      t.rev_messages <- m :: t.rev_messages;
      if M.enabled () then begin
        M.incr m_messages;
        M.incr (per_tid_counter e.tid)
      end;
      t.sink m

let var_id t x = Algorithm.intern t.algorithm x

let on_internal t tid = dispatch t (-1) (Exec.add_internal t.builder tid)
let on_read t tid x v = dispatch t (var_id t x) (Exec.add_read t.builder tid x v)
let on_write t tid x v = dispatch t (var_id t x) (Exec.add_write t.builder tid x v)
let on_read_id t tid id v = dispatch t id (Exec.add_read t.builder tid t.vars.(id) v)
let on_write_id t tid id v = dispatch t id (Exec.add_write t.builder tid t.vars.(id) v)

let invariant t = Algorithm.invariant t.algorithm
let finish t = (Exec.freeze t.builder, List.rev t.rev_messages)
