open Trace

type aexp =
  | Const of int
  | Var of Types.var
  | Neg of aexp
  | Add of aexp * aexp
  | Sub of aexp * aexp
  | Mul of aexp * aexp

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t = { cmp : cmp; lhs : aexp; rhs : aexp }

let make cmp lhs rhs = { cmp; lhs; rhs }

let rec eval_aexp state = function
  | Const n -> n
  | Var x -> State.get state x
  | Neg a -> -eval_aexp state a
  | Add (a, b) -> eval_aexp state a + eval_aexp state b
  | Sub (a, b) -> eval_aexp state a - eval_aexp state b
  | Mul (a, b) -> eval_aexp state a * eval_aexp state b

let holds { cmp; lhs; rhs } state =
  let a = eval_aexp state lhs and b = eval_aexp state rhs in
  match cmp with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

(* Closures over a slot-indexed state: the tree is walked once, here. *)
let rec compile_aexp ~slot = function
  | Const n -> fun _ -> n
  | Var x ->
      let i = slot x in
      fun (vals : int array) -> vals.(i)
  | Neg a ->
      let a = compile_aexp ~slot a in
      fun vals -> -a vals
  | Add (a, b) ->
      let a = compile_aexp ~slot a and b = compile_aexp ~slot b in
      fun vals -> a vals + b vals
  | Sub (a, b) ->
      let a = compile_aexp ~slot a and b = compile_aexp ~slot b in
      fun vals -> a vals - b vals
  | Mul (a, b) ->
      let a = compile_aexp ~slot a and b = compile_aexp ~slot b in
      fun vals -> a vals * b vals

let compile ~slot { cmp; lhs; rhs } =
  let a = compile_aexp ~slot lhs and b = compile_aexp ~slot rhs in
  match cmp with
  | Eq -> fun vals -> Int.equal (a vals) (b vals)
  | Ne -> fun vals -> not (Int.equal (a vals) (b vals))
  | Lt -> fun vals -> a vals < b vals
  | Le -> fun vals -> a vals <= b vals
  | Gt -> fun vals -> a vals > b vals
  | Ge -> fun vals -> a vals >= b vals

module Sset = Set.Make (String)

let rec aexp_vars = function
  | Const _ -> Sset.empty
  | Var x -> Sset.singleton x
  | Neg a -> aexp_vars a
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> Sset.union (aexp_vars a) (aexp_vars b)

let vars { lhs; rhs; _ } = Sset.elements (Sset.union (aexp_vars lhs) (aexp_vars rhs))

let equal (a : t) (b : t) = a = b
let compare = Stdlib.compare

let cmp_symbol = function
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec pp_aexp ppf = function
  | Const n -> Format.pp_print_int ppf n
  | Var x -> Format.pp_print_string ppf x
  | Neg a -> Format.fprintf ppf "-%a" pp_aexp_atom a
  | Add (a, b) -> Format.fprintf ppf "%a + %a" pp_aexp a pp_aexp_atom b
  | Sub (a, b) -> Format.fprintf ppf "%a - %a" pp_aexp a pp_aexp_atom b
  | Mul (a, b) -> Format.fprintf ppf "%a * %a" pp_aexp_atom a pp_aexp_atom b

and pp_aexp_atom ppf = function
  | (Const _ | Var _) as a -> pp_aexp ppf a
  | a -> Format.fprintf ppf "(%a)" pp_aexp a

let pp ppf { cmp; lhs; rhs } =
  Format.fprintf ppf "%a %s %a" pp_aexp lhs (cmp_symbol cmp) pp_aexp rhs

let to_string p = Format.asprintf "%a" pp p
