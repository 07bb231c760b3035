type unop = Neg | Not

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And
  | Or

type expr =
  | Int of int
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Choose of expr list

type stmt =
  | Skip
  | Nop of int
  | Assign of string * expr
  | Local_decl of string * expr
  | Seq of stmt list
  | If of expr * stmt * stmt
  | While of expr * stmt
  | Lock of string
  | Unlock of string
  | Sync of string * stmt
  | Wait of string
  | Notify of string
  | Spawn of string
  | Join of string

type thread = { tname : string; body : stmt }
type program = { shared : (string * int) list; threads : thread list }

let seq stmts =
  let rec flatten s acc =
    match s with
    | Skip -> acc
    | Seq ss -> List.fold_right flatten ss acc
    | s -> s :: acc
  in
  match List.fold_right flatten stmts [] with
  | [] -> Skip
  | [ s ] -> s
  | ss -> Seq ss

let program ~shared ~threads =
  { shared; threads = List.map (fun (tname, body) -> { tname; body }) threads }
