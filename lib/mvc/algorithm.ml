open Trace

(* Variables are interned to dense ids; [va.(x)] and [vw.(x)] are
   mutable clocks, allocated (zero) when [x] is interned, and every
   join is {!Vclock.join_into}.  A clock is copied only when it leaves:
   in an emitted message or from an accessor, so no clock handed out
   ever changes. *)

type t = {
  n : int;
  relevance : Relevance.t;
  per_variable : bool;
  vi : int array array;
  ids : (Types.var, int) Hashtbl.t;
  mutable nvars : int;
  mutable va : int array array;
  mutable vw : int array array;
  mutable read_relevant : bool array;
  mutable write_relevant : bool array;
}

let create ~nthreads ~relevance =
  if nthreads <= 0 then invalid_arg "Algorithm.create: nthreads must be positive";
  { n = nthreads;
    relevance;
    per_variable = Relevance.per_variable relevance;
    vi = Array.init nthreads (fun _ -> Array.make nthreads 0);
    ids = Hashtbl.create 16;
    nvars = 0;
    va = [||];
    vw = [||];
    read_relevant = [||];
    write_relevant = [||] }

let nthreads t = t.n
let relevance t = t.relevance

let grow a fill =
  let b = Array.make (Stdlib.max 16 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let intern t x =
  match Hashtbl.find_opt t.ids x with
  | Some id -> id
  | None ->
      let id = t.nvars in
      if id = Array.length t.va then begin
        t.va <- grow t.va [||];
        t.vw <- grow t.vw [||];
        t.read_relevant <- grow t.read_relevant false;
        t.write_relevant <- grow t.write_relevant false
      end;
      t.va.(id) <- Array.make t.n 0;
      t.vw.(id) <- Array.make t.n 0;
      if t.per_variable then begin
        t.read_relevant.(id) <- Relevance.is_relevant t.relevance (Event.Read (x, 0));
        t.write_relevant.(id) <- Relevance.is_relevant t.relevance (Event.Write (x, 0))
      end;
      Hashtbl.add t.ids x id;
      t.nvars <- id + 1;
      id

let var_clock t table x =
  match Hashtbl.find_opt t.ids x with
  | Some id -> Vclock.freeze table.(id)
  | None -> Vclock.zero t.n

let access_clock t x = var_clock t t.va x
let write_clock t x = var_clock t t.vw x

let check_tid what t i =
  if i < 0 || i >= t.n then invalid_arg ("Algorithm." ^ what ^ ": bad thread id")

let thread_clock t i =
  check_tid "thread_clock" t i;
  Vclock.freeze t.vi.(i)

(* The error text names [thread_clock], which [relevant_count] reads. *)
let relevant_count t i =
  check_tid "thread_clock" t i;
  t.vi.(i).(i)

type join_stats = { joins : int; entry_updates : int }
type counters = { mutable joins : int; mutable entry_updates : int }

let counters = { joins = 0; entry_updates = 0 }
let join_stats () : join_stats = { joins = counters.joins; entry_updates = counters.entry_updates }

let reset_join_stats () =
  counters.joins <- 0;
  counters.entry_updates <- 0

let join t dst src =
  ignore (Vclock.join_into dst src ~own:(-1));
  counters.joins <- counters.joins + 1;
  counters.entry_updates <- counters.entry_updates + t.n

let process_at t i ~var (kind : Event.kind) =
  check_tid "process" t i;
  let relevant =
    match kind with
    | Event.Read _ when t.per_variable -> t.read_relevant.(var)
    | Event.Write _ when t.per_variable -> t.write_relevant.(var)
    | _ -> Relevance.is_relevant t.relevance kind
  in
  let vi = t.vi.(i) in
  (* step 1 *)
  if relevant then vi.(i) <- vi.(i) + 1;
  (match kind with
  | Event.Internal -> ()
  | Event.Read _ ->
      (* step 2 *)
      join t vi t.vw.(var);
      join t t.va.(var) vi
  | Event.Write _ ->
      (* step 3 *)
      join t vi t.va.(var);
      t.va.(var) <- Vclock.assign t.va.(var) vi;
      t.vw.(var) <- Vclock.assign t.vw.(var) vi);
  (* step 4 *)
  if relevant then Some (Vclock.freeze vi) else None

let process t i (kind : Event.kind) =
  match kind with
  | Event.Internal -> process_at t i ~var:(-1) kind
  | Event.Read (x, _) | Event.Write (x, _) -> process_at t i ~var:(intern t x) kind

let invariant t =
  let totals = Array.init t.n (fun i -> t.vi.(i).(i)) in
  let within c =
    let rec go j = j >= Array.length c || (c.(j) <= totals.(j) && go (j + 1)) in
    go 0
  in
  let leq a b =
    let rec go j = j >= Array.length a || (a.(j) <= b.(j) && go (j + 1)) in
    go 0
  in
  let ok = ref (Array.for_all within t.vi) in
  for x = 0 to t.nvars - 1 do
    if not (leq t.vw.(x) t.va.(x) && within t.va.(x) && within t.vw.(x)) then ok := false
  done;
  !ok
