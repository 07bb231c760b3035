(* One subformula, its children resolved to slot indices: slot [i] of a
   monitor state is the truth of [subs.(i)].  Atoms index [atoms]. *)
type op =
  | Const of bool
  | Atom of int
  | Not of int
  | And of int * int
  | Or of int * int
  | Implies of int * int
  | Prev of int
  | Once of int
  | Historically of int
  | Since of int * int
  | Interval of int * int
  | Start of int
  | End of int

type compiled = {
  formula : Formula.t;
  ops : op array;  (* bottom-up: children precede parents *)
  atoms : Predicate.t array;  (* distinct atoms, in slot order *)
}

type state = bool array

let compile formula =
  let subs = Array.of_list (Formula.subformulas formula) in
  let slot f =
    let rec go i =
      if i >= Array.length subs then assert false (* closed under sub-terms *)
      else if Formula.equal subs.(i) f then i
      else go (i + 1)
    in
    go 0
  in
  let atoms = ref [] and natoms = ref 0 in
  let ops =
    Array.map
      (fun f ->
        match f with
        | Formula.True -> Const true
        | Formula.False -> Const false
        | Formula.Atom p ->
            atoms := p :: !atoms;
            incr natoms;
            Atom (!natoms - 1)
        | Formula.Not g -> Not (slot g)
        | Formula.And (g, h) -> And (slot g, slot h)
        | Formula.Or (g, h) -> Or (slot g, slot h)
        | Formula.Implies (g, h) -> Implies (slot g, slot h)
        | Formula.Prev g -> Prev (slot g)
        | Formula.Once g -> Once (slot g)
        | Formula.Historically g -> Historically (slot g)
        | Formula.Since (g, h) -> Since (slot g, slot h)
        | Formula.Interval (g, h) -> Interval (slot g, slot h)
        | Formula.Start g -> Start (slot g)
        | Formula.End g -> End (slot g))
      subs
  in
  { formula; ops; atoms = Array.of_list (List.rev !atoms) }

let formula c = c.formula
let width c = Array.length c.ops
let atoms c = c.atoms

(* [now] is filled bottom-up, so children are available when a parent is
   computed.  [prev] is [None] on the initial state, in which case the
   Havelund–Roşu initial-state convention applies: the previous value of
   a subformula is its current one, so only the temporal cases look at
   [first]. *)
let compute c ~prev (values : bool array) =
  let w = Array.length c.ops in
  let now = Array.make w false in
  let first = Option.is_none prev in
  let p : state = match prev with None -> now | Some p -> p in
  for i = 0 to w - 1 do
    now.(i) <-
      (match c.ops.(i) with
      | Const b -> b
      | Atom a -> values.(a)
      | Not g -> not now.(g)
      | And (g, h) -> now.(g) && now.(h)
      | Or (g, h) -> now.(g) || now.(h)
      | Implies (g, h) -> (not now.(g)) || now.(h)
      | Prev g -> if first then now.(g) else p.(g)
      | Once g -> now.(g) || ((not first) && p.(i))
      | Historically g -> now.(g) && (first || p.(i))
      | Since (g, h) -> now.(h) || (now.(g) && (not first) && p.(i))
      | Interval (g, h) -> (not now.(h)) && (now.(g) || ((not first) && p.(i)))
      | Start g -> (not first) && now.(g) && not p.(g)
      | End g -> (not first) && (not now.(g)) && p.(g))
  done;
  now

let init_atoms c values = compute c ~prev:None values
let step_atoms c state values = compute c ~prev:(Some state) values
let init_with c ~atom = compute c ~prev:None (Array.map atom c.atoms)
let step_with c state ~atom = compute c ~prev:(Some state) (Array.map atom c.atoms)
let init c global = init_with c ~atom:(fun p -> Predicate.holds p global)
let step c state global = step_with c state ~atom:(fun p -> Predicate.holds p global)
let verdict c state = state.(width c - 1)

(* The order of [Stdlib.compare] on bool arrays (size first, then
   elements, [false < true]) without the polymorphic walk: monitor-state
   sets are ordered by it, and snapshots list their elements in it.  A
   loop rather than a local recursive function, which would allocate a
   closure on every comparison. *)
let compare_state (a : state) (b : state) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let i = ref 0 in
    while !i < la && Array.unsafe_get a !i = Array.unsafe_get b !i do
      incr i
    done;
    if !i = la then 0 else if Array.unsafe_get b !i then -1 else 1
  end

(* Every bit counts: [Hashtbl.hash] reads only the first ten. *)
let hash_state (s : state) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length s - 1 do
    h := (!h lxor Bool.to_int (Array.unsafe_get s i)) * 0x01000193
  done;
  (!h lxor (!h lsr 29)) land max_int

let state_to_string (s : state) =
  String.init (Array.length s) (fun i -> if s.(i) then '1' else '0')

let state_of_string c text =
  if String.length text <> width c then None
  else
    let ok = String.for_all (fun ch -> ch = '0' || ch = '1') text in
    if not ok then None
    else Some (Array.init (String.length text) (fun i -> text.[i] = '1'))
