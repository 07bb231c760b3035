(* Conformance laws for the two clock modules Algorithm A runs on: the
   dense [Vclock] of the paper's Fig. 2 and the sparse [Dvclock] behind
   its dynamic-threads extension ([Mvc.Dynamic], Section 2); and the
   in-place [Mvc.Algorithm] against a reference model, the hash-table
   algorithm over immutable clocks that Fig. 2 reads as.

   Clock families are generated by the protocol Algorithm A follows:
   thread clocks advance only through their own [inc] and joins into
   themselves, accumulator clocks only through joins.  Every generated
   clock is shadowed by a dense model array, so each law is checked
   against ground truth. *)

open Trace

(* {1 Protocol generator} *)

type op =
  | Inc of int  (* thread i ticks its own clock *)
  | Join of int * int  (* accumulator a absorbs thread i's clock *)
  | Absorb of int * int  (* thread i's clock absorbs accumulator a *)
  | Join_acc of int * int  (* accumulator a absorbs accumulator b *)

let nacc = 3

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (frequency
         [ (4, map (fun i -> Inc i) (int_bound 1000));
           (3, map2 (fun a i -> Join (a, i)) (int_bound 1000) (int_bound 1000));
           (3, map2 (fun i a -> Absorb (i, a)) (int_bound 1000) (int_bound 1000));
           (1, map2 (fun a b -> Join_acc (a, b)) (int_bound 1000) (int_bound 1000)) ]))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Inc i -> Printf.sprintf "inc%d" i
         | Join (a, i) -> Printf.sprintf "j%d<-t%d" a i
         | Absorb (i, a) -> Printf.sprintf "t%d<-a%d" i a
         | Join_acc (a, b) -> Printf.sprintf "a%d<-a%d" a b)
       ops)

let arb_ops = QCheck.make ~print:print_ops gen_ops

(* Synthetic Algorithm A inputs, as in test_mvc. *)
type action = A_internal | A_read of string | A_write of string * int

let vars_pool = [ "x"; "y"; "z" ]
let relevance_writes = Mvc.Relevance.writes_of_vars vars_pool

let gen_steps ~nthreads =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (pair (int_bound (nthreads - 1))
         (frequency
            [ (1, return A_internal);
              (3, map (fun x -> A_read x) (oneofl vars_pool));
              (4, map2 (fun x v -> A_write (x, v)) (oneofl vars_pool) (int_bound 9)) ])))

let print_steps steps =
  String.concat ";"
    (List.map
       (fun (tid, a) ->
         Printf.sprintf "T%d:%s" tid
           (match a with
           | A_internal -> "i"
           | A_read x -> "r" ^ x
           | A_write (x, v) -> Printf.sprintf "w%s=%d" x v))
       steps)

let arb_steps ~nthreads = QCheck.make ~print:print_steps (gen_steps ~nthreads)

let event_kind = function
  | A_internal -> Event.Internal
  | A_read x -> Event.Read (x, 0)
  | A_write (x, v) -> Event.Write (x, v)

(* {1 The law suite} *)

(* What the laws read of a clock module.  [emit] runs Algorithm A over
   it on [steps] and returns the emitted (thread, clock) pairs in order
   and the algorithm's consistency verdict. *)
module type CLOCK = sig
  type t

  val name : string
  val zero : int -> t
  val get : t -> int -> int
  val inc : t -> int -> t
  val max : t -> t -> t
  val leq : t -> t -> bool
  val lt : t -> t -> bool
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val concurrent : t -> t -> bool
  val sum : t -> int
  val hash : t -> int

  val serialize_roundtrip : t -> t
  (** Out to the module's external form and back. *)

  val of_vclock : Vclock.t -> t
  val to_vclock : dim:int -> t -> Vclock.t
  val emit : nthreads:int -> (int * Event.kind) list -> (int * t) list * bool
end

module Laws (C : CLOCK) = struct
  let mjoin a b = Array.mapi (fun j x -> Stdlib.max x b.(j)) a

  (* Replay a protocol op sequence against [C] and the dense model in
     lockstep; returns every live clock with its model. *)
  let replay ~nthreads ops =
    let tc = Array.init nthreads (fun _ -> C.zero nthreads) in
    let tm = Array.make_matrix nthreads nthreads 0 in
    let ac = Array.init nacc (fun _ -> C.zero nthreads) in
    let am = Array.make_matrix nacc nthreads 0 in
    List.iter
      (fun op ->
        match op with
        | Inc i ->
            let i = i mod nthreads in
            tc.(i) <- C.inc tc.(i) i;
            tm.(i).(i) <- tm.(i).(i) + 1
        | Join (a, i) ->
            let a = a mod nacc and i = i mod nthreads in
            ac.(a) <- C.max ac.(a) tc.(i);
            am.(a) <- mjoin am.(a) tm.(i)
        | Absorb (i, a) ->
            let i = i mod nthreads and a = a mod nacc in
            tc.(i) <- C.max tc.(i) ac.(a);
            tm.(i) <- mjoin tm.(i) am.(a)
        | Join_acc (a, b) ->
            let a = a mod nacc and b = b mod nacc in
            ac.(a) <- C.max ac.(a) ac.(b);
            am.(a) <- mjoin am.(a) am.(b))
      ops;
    Array.to_list
      (Array.append (Array.map2 (fun c m -> (c, m)) tc tm)
         (Array.map2 (fun c m -> (c, m)) ac am))

  let agrees ~nthreads c m =
    let ok = ref true in
    for j = 0 to nthreads - 1 do
      if C.get c j <> m.(j) then ok := false
    done;
    !ok

  let mleq a b = Array.for_all2 (fun x y -> x <= y) a b

  let forall_pairs clocks f =
    List.for_all (fun p -> List.for_all (fun q -> f p q) clocks) clocks

  let nthreads = 3

  let law name count prop =
    QCheck.Test.make ~name:(Printf.sprintf "%s: %s" C.name name) ~count arb_ops prop

  let t_values =
    law "values agree with the dense model" 300 (fun ops ->
        List.for_all
          (fun (c, m) -> agrees ~nthreads c m)
          (replay ~nthreads ops))

  let t_order =
    law "leq/lt/equal/concurrent/compare/sum agree with the model" 300 (fun ops ->
        let clocks = replay ~nthreads ops in
        forall_pairs clocks (fun (c1, m1) (c2, m2) ->
            let eq = m1 = m2 in
            C.leq c1 c2 = mleq m1 m2
            && C.equal c1 c2 = eq
            && C.lt c1 c2 = (mleq m1 m2 && not eq)
            && C.concurrent c1 c2 = ((not (mleq m1 m2)) && not (mleq m2 m1))
            && (C.compare c1 c2 = 0) = eq
            && C.sum c1 = Array.fold_left ( + ) 0 m1))

  let t_join =
    law "max is the lattice join" 200 (fun ops ->
        let clocks = replay ~nthreads ops in
        forall_pairs clocks (fun (c1, m1) (c2, m2) ->
            let r = C.max c1 c2 in
            agrees ~nthreads r (mjoin m1 m2) && C.leq c1 r && C.leq c2 r))

  let t_inc =
    law "inc is strictly monotone" 200 (fun ops ->
        let clocks = replay ~nthreads ops in
        List.for_all
          (fun (c, _) ->
            List.for_all
              (fun i ->
                let c' = C.inc c i in
                C.lt c c' && C.get c' i = C.get c i + 1)
              [ 0; 1; 2 ])
          clocks)

  let t_serialize =
    law "serialize roundtrips (value, order, hash)" 200 (fun ops ->
        List.for_all
          (fun (c, m) ->
            let c' = C.serialize_roundtrip c in
            C.equal c c' && C.hash c = C.hash c' && agrees ~nthreads c' m)
          (replay ~nthreads ops))

  let t_vclock =
    law "of_vclock/to_vclock roundtrip" 200 (fun ops ->
        List.for_all
          (fun (c, m) ->
            let v = C.to_vclock ~dim:nthreads c in
            Array.for_all2 (fun j x -> x = Vclock.get v j)
              (Array.init nthreads Fun.id) m
            && C.equal (C.of_vclock v) c)
          (replay ~nthreads ops))

  (* Theorem 3 on messages emitted by Algorithm A over this clock: for
     emissions k < l, V_k[i_k] <= V_l[i_k] iff V_k < V_l. *)
  let t_theorem3 =
    let nthreads = 4 in
    QCheck.Test.make
      ~name:(Printf.sprintf "%s: Theorem 3 equivalence on emitted pairs" C.name)
      ~count:300 (arb_steps ~nthreads) (fun steps ->
        let emitted, consistent =
          C.emit ~nthreads (List.map (fun (tid, a) -> (tid, event_kind a)) steps)
        in
        let rec pairs = function
          | [] -> true
          | (ik, vk) :: rest ->
              List.for_all
                (fun (_, vl) -> (C.get vk ik <= C.get vl ik) = C.lt vk vl)
                rest
              && pairs rest
        in
        pairs emitted && consistent)

  let tests =
    [ t_values; t_order; t_join; t_inc; t_serialize; t_vclock; t_theorem3 ]
end

let emit_with process steps =
  List.filter_map
    (fun (tid, kind) -> Option.map (fun v -> (tid, v)) (process tid kind))
    steps

module Dense_laws = Laws (struct
  include Vclock

  let name = "dense"
  let serialize_roundtrip v = of_string (to_string v)
  let of_vclock v = v
  let to_vclock ~dim:_ v = v

  let emit ~nthreads steps =
    let algo = Mvc.Algorithm.create ~nthreads ~relevance:relevance_writes in
    let emitted = emit_with (Mvc.Algorithm.process algo) steps in
    (emitted, Mvc.Algorithm.invariant algo)
end)

module Dvclock_laws = Laws (struct
  include Dvclock

  let name = "dvclock"
  let zero _ = empty
  let hash v = Hashtbl.hash (to_list v)
  let serialize_roundtrip v = of_list (to_list v)

  let emit ~nthreads:_ steps =
    let algo = Mvc.Dynamic.create ~relevance:relevance_writes in
    (emit_with (Mvc.Dynamic.process algo) steps, true)
end)

(* {1 The in-place algorithm against a reference model}

   The reference is Fig. 2 read literally: immutable dense clocks, a
   hash table per variable kind, relevance decided per event.  Events
   range over data variables and the dummy lock and notify variables of
   Section 3.1, under filters decided per variable and one decided per
   event.  After every event the in-place [Mvc.Algorithm] must agree with
   the reference on the event's result, every thread, access and write
   clock, and the invariant; a dense emitter driven through variable ids
   must emit the same clocks; and no clock handed out so far -- by
   [process], an accessor or in a message -- may have changed. *)

module Reference = struct
  type t = {
    n : int;
    relevance : Mvc.Relevance.t;
    vi : Vclock.t array;
    va : (Types.var, Vclock.t) Hashtbl.t;
    vw : (Types.var, Vclock.t) Hashtbl.t;
  }

  let create ~nthreads ~relevance =
    { n = nthreads;
      relevance;
      vi = Array.init nthreads (fun _ -> Vclock.zero nthreads);
      va = Hashtbl.create 16;
      vw = Hashtbl.create 16 }

  let var_clock t table x =
    match Hashtbl.find_opt table x with Some v -> v | None -> Vclock.zero t.n

  let access_clock t x = var_clock t t.va x
  let write_clock t x = var_clock t t.vw x
  let thread_clock t i = t.vi.(i)
  let relevant_count t i = Vclock.get t.vi.(i) i

  let process t i (kind : Event.kind) =
    let relevant = Mvc.Relevance.is_relevant t.relevance kind in
    (* step 1 *)
    if relevant then t.vi.(i) <- Vclock.inc t.vi.(i) i;
    (match kind with
    | Event.Internal -> ()
    | Event.Read (x, _) ->
        (* step 2 *)
        t.vi.(i) <- Vclock.max t.vi.(i) (write_clock t x);
        Hashtbl.replace t.va x (Vclock.max (access_clock t x) t.vi.(i))
    | Event.Write (x, _) ->
        (* step 3 *)
        let v = Vclock.max t.vi.(i) (access_clock t x) in
        t.vi.(i) <- v;
        Hashtbl.replace t.va x v;
        Hashtbl.replace t.vw x v);
    (* step 4 *)
    if relevant then Some t.vi.(i) else None

  let invariant t =
    let totals = Array.init t.n (relevant_count t) in
    let within v = List.for_all2 ( >= ) (Array.to_list totals) (Vclock.to_list v) in
    Hashtbl.fold (fun x va ok -> ok && Vclock.leq (write_clock t x) va && within va) t.va true
    && Hashtbl.fold (fun _ vw ok -> ok && within vw) t.vw true
    && Array.for_all within t.vi
end

let sync_vars = [ "x"; "y"; Types.lock_var "m"; Types.lock_var "n"; Types.notify_var "c" ]
let all_vars = "never" :: sync_vars

let gen_sync_steps ~nthreads =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (pair (int_bound (nthreads - 1))
         (frequency
            [ (1, return A_internal);
              (3, map (fun x -> A_read x) (oneofl sync_vars));
              (4, map2 (fun x v -> A_write (x, v)) (oneofl sync_vars) (int_bound 9)) ])))

let in_place_relevances =
  [ ("writes of x", Mvc.Relevance.writes_of_vars [ "x" ]);
    ("all events", Mvc.Relevance.all_events);
    ( "all accesses",
      Mvc.Relevance.custom (function
        | Event.Read (x, _) | Event.Write (x, _) -> Types.is_data_var x
        | Event.Internal -> false) );
    ( "custom",
      Mvc.Relevance.custom (function
        | Event.Write (_, v) -> v mod 2 = 0
        | Event.Read (x, _) -> x = "y"
        | Event.Internal -> false) ) ]

let in_place_matches_reference (rname, relevance) =
  let nthreads = 4 in
  let vars = Array.of_list sync_vars in
  let id x =
    let rec find i = if vars.(i) = x then i else find (i + 1) in
    find 0
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "in-place = reference: %s" rname)
    ~count:300
    (QCheck.make ~print:print_steps (gen_sync_steps ~nthreads))
    (fun steps ->
      let algo = Mvc.Algorithm.create ~nthreads ~relevance in
      let reference = Reference.create ~nthreads ~relevance in
      let emitted = Queue.create () in
      let em =
        Mvc.Emitter.create ~vars ~nthreads ~init:[] ~relevance ~sink:(fun m -> Queue.add m emitted)
          ()
      in
      let handed = ref [] in
      let keep v =
        handed := (v, Vclock.to_list v) :: !handed;
        v
      in
      let same v w = Vclock.equal (keep v) w in
      List.for_all
        (fun (tid, a) ->
          let kind = event_kind a in
          let expected = Reference.process reference tid kind in
          let result =
            match (Mvc.Algorithm.process algo tid kind, expected) with
            | None, None -> true
            | Some v, Some w -> same v w
            | _ -> false
          in
          (match a with
          | A_internal -> Mvc.Emitter.on_internal em tid
          | A_read x -> Mvc.Emitter.on_read_id em tid (id x) 0
          | A_write (x, v) -> Mvc.Emitter.on_write_id em tid (id x) v);
          let message =
            match (Queue.take_opt emitted, expected) with
            | None, None -> true
            | Some m, Some w ->
                handed := (m.Message.mvc, Vclock.to_list m.Message.mvc) :: !handed;
                Vclock.equal m.Message.mvc w
            | _ -> false
          in
          result && message
          && List.for_all
               (fun i ->
                 same (Mvc.Algorithm.thread_clock algo i) (Reference.thread_clock reference i)
                 && Mvc.Algorithm.relevant_count algo i = Reference.relevant_count reference i)
               (List.init nthreads Fun.id)
          && List.for_all
               (fun x ->
                 same (Mvc.Algorithm.access_clock algo x) (Reference.access_clock reference x)
                 && same (Mvc.Algorithm.write_clock algo x) (Reference.write_clock reference x))
               all_vars
          && Mvc.Algorithm.invariant algo = Reference.invariant reference
          && Mvc.Emitter.invariant em
          && List.for_all (fun (v, l) -> Vclock.to_list v = l) !handed)
        steps)

let () =
  Alcotest.run "clock"
    [ ("laws", List.map QCheck_alcotest.to_alcotest (Dense_laws.tests @ Dvclock_laws.tests));
      ( "integration",
        List.map QCheck_alcotest.to_alcotest
          (List.map in_place_matches_reference in_place_relevances) ) ]
