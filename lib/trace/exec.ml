type t = {
  nthreads : int;
  events : Event.t array;
  init : (Types.var * Types.value) list;
}

type builder = {
  b_nthreads : int;
  b_init : (Types.var * Types.value) list;
  mutable rev_events : Event.t list;
  mutable next_eid : int;
  pos : int array;  (* next per-thread position, 1-based *)
}

let builder ~nthreads ~init =
  if nthreads <= 0 then invalid_arg "Exec.builder: nthreads must be positive";
  { b_nthreads = nthreads; b_init = init; rev_events = []; next_eid = 0;
    pos = Array.make nthreads 1 }

let push b tid kind =
  if tid < 0 || tid >= b.b_nthreads then invalid_arg "Exec: thread id out of range";
  let e = Event.{ eid = b.next_eid; tid; pos = b.pos.(tid); kind } in
  b.rev_events <- e :: b.rev_events;
  b.next_eid <- b.next_eid + 1;
  b.pos.(tid) <- b.pos.(tid) + 1;
  e

let add_internal b tid = push b tid Event.Internal
let add_read b tid x v = push b tid (Event.Read (x, v))
let add_write b tid x v = push b tid (Event.Write (x, v))

let freeze b =
  { nthreads = b.b_nthreads;
    events = Array.of_list (List.rev b.rev_events);
    init = b.b_init }

let nthreads m = m.nthreads
let length m = Array.length m.events
let events m = m.events

let event m eid =
  if eid < 0 || eid >= Array.length m.events then invalid_arg "Exec.event: out of bounds";
  m.events.(eid)

let init m = m.init

let variables m =
  let module S = Set.Make (String) in
  let s = List.fold_left (fun s (x, _) -> S.add x s) S.empty m.init in
  let s =
    Array.fold_left
      (fun s e -> match Event.variable e with Some x -> S.add x s | None -> s)
      s m.events
  in
  S.elements s

let pp ppf m =
  Format.fprintf ppf "@[<v>exec (%d threads, %d events)@," m.nthreads (length m);
  Array.iter (fun e -> Format.fprintf ppf "  %a@," Event.pp e) m.events;
  Format.fprintf ppf "@]"
