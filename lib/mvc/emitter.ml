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

(* Dense clocks run the in-place toplevel algorithm on variable ids;
   any other backend runs [Algorithm.Make], erased behind closures.
   Messages always carry dense clocks, so the wire format is
   backend-independent. *)
type algorithm =
  | In_place of Algorithm.t
  | Functor of { process : Types.tid -> Event.kind -> Vclock.t option; check : unit -> bool }

type t = {
  builder : Exec.builder;
  algorithm : algorithm;
  vars : Types.var array;
  backend : string;
  sink : Message.t -> unit;
  mutable rev_messages : Message.t list;
  mutable count : int;
}

let create ?(clock = Clock.Registry.default) ?(vars = [||]) ~nthreads ~init ~relevance
    ?(sink = fun _ -> ()) () =
  let module C = (val clock : Clock.Spec.CLOCK) in
  let algorithm =
    if C.name = Clock.Dense.name then begin
      let algo = Algorithm.create ~nthreads ~relevance in
      Array.iteri
        (fun id x ->
          if Algorithm.intern algo x <> id then
            invalid_arg ("Emitter.create: variable " ^ x ^ " listed twice"))
        vars;
      In_place algo
    end
    else begin
      let module A = Algorithm.Make (C) in
      let algo = A.create ~nthreads ~relevance in
      Functor
        { process =
            (fun tid kind -> Option.map (C.to_vclock ~dim:nthreads) (A.process algo tid kind));
          check = (fun () -> A.invariant algo) }
    end
  in
  { builder = Exec.builder ~nthreads ~init;
    algorithm;
    vars;
    backend = C.name;
    sink;
    rev_messages = [];
    count = 0 }

let process t var (e : Event.t) =
  match t.algorithm with
  | In_place algo -> Algorithm.process_at algo e.tid ~var e.kind
  | Functor f -> f.process e.tid e.kind

(* [var] is the event's variable id (unused for internal events and by
   the functor path). *)
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
      t.count <- t.count + 1;
      if M.enabled () then begin
        M.incr m_messages;
        M.incr (per_tid_counter e.tid)
      end;
      t.sink m

let var_id t x = match t.algorithm with In_place algo -> Algorithm.intern algo x | Functor _ -> -1

let on_internal t tid = dispatch t (-1) (Exec.add_internal t.builder tid)
let on_read t tid x v = dispatch t (var_id t x) (Exec.add_read t.builder tid x v)
let on_write t tid x v = dispatch t (var_id t x) (Exec.add_write t.builder tid x v)
let on_read_id t tid id v = dispatch t id (Exec.add_read t.builder tid t.vars.(id) v)
let on_write_id t tid id v = dispatch t id (Exec.add_write t.builder tid t.vars.(id) v)

let invariant t =
  match t.algorithm with In_place algo -> Algorithm.invariant algo | Functor f -> f.check ()

let backend_name t = t.backend
let message_count t = t.count
let finish t = (Exec.freeze t.builder, List.rev t.rev_messages)
