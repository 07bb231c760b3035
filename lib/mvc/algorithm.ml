open Trace

module type S = sig
  type clock
  type t

  val create : nthreads:int -> relevance:Relevance.t -> t
  val nthreads : t -> int
  val relevance : t -> Relevance.t
  val process : t -> Types.tid -> Event.kind -> clock option
  val thread_clock : t -> Types.tid -> clock
  val access_clock : t -> Types.var -> clock
  val write_clock : t -> Types.var -> clock
  val relevant_count : t -> Types.tid -> int
  val invariant : t -> bool
end

module Make (C : Clock.Spec.CLOCK) = struct
  type clock = C.t

  type t = {
    n : int;
    relevance : Relevance.t;
    vi : C.t array;
    va : (Types.var, C.t) Hashtbl.t;
    vw : (Types.var, C.t) Hashtbl.t;
  }

  let create ~nthreads ~relevance =
    if nthreads <= 0 then invalid_arg "Algorithm.create: nthreads must be positive";
    { n = nthreads;
      relevance;
      vi = Array.init nthreads (fun _ -> C.zero nthreads);
      va = Hashtbl.create 16;
      vw = Hashtbl.create 16 }

  let nthreads t = t.n
  let relevance t = t.relevance

  let var_clock table n x =
    match Hashtbl.find_opt table x with Some v -> v | None -> C.zero n

  let access_clock t x = var_clock t.va t.n x
  let write_clock t x = var_clock t.vw t.n x
  let thread_clock t i =
    if i < 0 || i >= t.n then invalid_arg "Algorithm.thread_clock: bad thread id";
    t.vi.(i)

  let relevant_count t i = C.get (thread_clock t i) i

  let process t i (kind : Event.kind) =
    if i < 0 || i >= t.n then invalid_arg "Algorithm.process: bad thread id";
    let relevant = Relevance.is_relevant t.relevance kind in
    (* step 1 *)
    if relevant then t.vi.(i) <- C.inc t.vi.(i) i;
    (match kind with
    | Event.Internal -> ()
    | Event.Read (x, _) ->
        (* step 2; the live thread clock absorbs, the variable clock
           accumulates. *)
        t.vi.(i) <- C.absorb t.vi.(i) (write_clock t x);
        Hashtbl.replace t.va x (C.max (access_clock t x) t.vi.(i))
    | Event.Write (x, _) ->
        (* step 3 *)
        let v = C.absorb t.vi.(i) (access_clock t x) in
        t.vi.(i) <- v;
        Hashtbl.replace t.va x v;
        Hashtbl.replace t.vw x v);
    (* step 4 *)
    if relevant then Some t.vi.(i) else None

  let invariant t =
    let ok = ref true in
    let totals = Array.init t.n (fun i -> relevant_count t i) in
    let within v =
      let rec go j = j >= t.n || (C.get v j <= totals.(j) && go (j + 1)) in
      go 0
    in
    Hashtbl.iter
      (fun x va ->
        if not (C.leq (write_clock t x) va) then ok := false;
        if not (within va) then ok := false)
      t.va;
    Hashtbl.iter (fun _ vw -> if not (within vw) then ok := false) t.vw;
    Array.iter (fun v -> if not (within v) then ok := false) t.vi;
    !ok
end

(* {1 The in-place dense instance}

   Variables are interned to dense ids; [va.(x)] and [vw.(x)] are
   mutable clocks, allocated (zero) when [x] is interned, and every
   join is {!Vclock.join_into}.  A clock is copied only when it leaves:
   in an emitted message or from an accessor, so no clock handed out
   ever changes.  Each join visits all [n] components, so it accounts
   into the dense backend's statistics exactly as [Make (Clock.Dense)]'s
   [max] does. *)

type clock = Vclock.t

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

(* The functor's error text, whose [relevant_count] reads [thread_clock]. *)
let relevant_count t i =
  check_tid "thread_clock" t i;
  t.vi.(i).(i)

let join t dst src =
  ignore (Vclock.join_into dst src ~own:(-1));
  Clock.Stats.note_join Clock.Dense.stats ~entries:t.n

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
