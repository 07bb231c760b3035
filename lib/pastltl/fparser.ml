exception Error of string

type token =
  | TINT of int
  | TIDENT of string
  | TTRUE | TFALSE
  | TAND | TOR | TNOT | TIMPLIES
  | TPREV | TONCE | TALWAYS | TSINCE | TSTART | TEND
  | TEQ | TNE | TLT | TLE | TGT | TGE
  | TPLUS | TMINUS | TSTAR
  | TLPAREN | TRPAREN | TLBRACKET | TCOMMA
  | TEOF

let keywords =
  [ ("true", TTRUE); ("false", TFALSE); ("and", TAND); ("or", TOR); ("not", TNOT);
    ("prev", TPREV); ("once", TONCE); ("always", TALWAYS); ("since", TSINCE);
    ("start", TSTART); ("end", TEND) ]

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do incr i done;
      push (TINT (int_of_string (String.sub src start (!i - start))))
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let start = !i in
      while
        !i < n
        && ((src.[!i] >= 'a' && src.[!i] <= 'z')
           || (src.[!i] >= 'A' && src.[!i] <= 'Z')
           || (src.[!i] >= '0' && src.[!i] <= '9')
           || src.[!i] = '_')
      do incr i done;
      let word = String.sub src start (!i - start) in
      push (match List.assoc_opt word keywords with Some t -> t | None -> TIDENT word)
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      let advance2 t = push t; i := !i + 2 in
      let advance1 t = push t; incr i in
      match two with
      | "==" -> if !i + 2 < n && src.[!i + 2] = '>' then begin push TIMPLIES; i := !i + 3 end
                else advance2 TEQ
      | "!=" -> advance2 TNE
      | "<=" -> advance2 TLE
      | ">=" -> advance2 TGE
      | _ -> (
          match c with
          | '<' -> advance1 TLT
          | '>' -> advance1 TGT
          | '!' -> advance1 TNOT
          | '+' -> advance1 TPLUS
          | '-' -> advance1 TMINUS
          | '*' -> advance1 TSTAR
          | '(' -> advance1 TLPAREN
          | ')' -> advance1 TRPAREN
          | '[' -> advance1 TLBRACKET
          | ',' -> advance1 TCOMMA
          | _ -> raise (Error (Printf.sprintf "unexpected character %C" c)))
    end
  done;
  List.rev (TEOF :: !toks)

type st = { mutable toks : token list }

let peek st = match st.toks with [] -> TEOF | t :: _ -> t
let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r
let save st = st.toks
let restore st saved = st.toks <- saved
let expect st t what = if peek st = t then advance st else raise (Error ("expected " ^ what))

(* {1 Arithmetic} *)

let rec parse_aexp st =
  let rec chain left =
    match peek st with
    | TPLUS ->
        advance st;
        chain (Predicate.Add (left, parse_term st))
    | TMINUS ->
        advance st;
        chain (Predicate.Sub (left, parse_term st))
    | _ -> left
  in
  chain (parse_term st)

and parse_term st =
  let rec chain left =
    match peek st with
    | TSTAR ->
        advance st;
        chain (Predicate.Mul (left, parse_factor st))
    | _ -> left
  in
  chain (parse_factor st)

and parse_factor st =
  match peek st with
  | TINT n ->
      advance st;
      Predicate.Const n
  | TIDENT x ->
      advance st;
      Predicate.Var x
  | TMINUS ->
      advance st;
      (match parse_factor st with
      | Predicate.Const n -> Predicate.Const (-n)
      | a -> Predicate.Neg a)
  | TLPAREN ->
      advance st;
      let a = parse_aexp st in
      expect st TRPAREN "')'";
      a
  | _ -> raise (Error "expected arithmetic expression")

let parse_predicate st =
  let lhs = parse_aexp st in
  let cmp =
    match peek st with
    | TEQ -> Predicate.Eq
    | TNE -> Predicate.Ne
    | TLT -> Predicate.Lt
    | TLE -> Predicate.Le
    | TGT -> Predicate.Gt
    | TGE -> Predicate.Ge
    | _ -> raise (Error "expected comparison operator")
  in
  advance st;
  let rhs = parse_aexp st in
  Formula.Atom (Predicate.make cmp lhs rhs)

(* {1 Formulas} *)

let rec parse_formula st =
  let left = parse_since st in
  match peek st with
  | TIMPLIES ->
      advance st;
      Formula.Implies (left, parse_formula st)
  | _ -> left

and parse_since st =
  let left = parse_or st in
  match peek st with
  | TSINCE ->
      advance st;
      Formula.Since (left, parse_or st)
  | _ -> left

and parse_or st =
  let rec chain left =
    match peek st with
    | TOR ->
        advance st;
        chain (Formula.Or (left, parse_and st))
    | _ -> left
  in
  chain (parse_and st)

and parse_and st =
  let rec chain left =
    match peek st with
    | TAND ->
        advance st;
        chain (Formula.And (left, parse_unary st))
    | _ -> left
  in
  chain (parse_unary st)

and parse_unary st =
  match peek st with
  | TNOT ->
      advance st;
      Formula.Not (parse_unary st)
  | TPREV ->
      advance st;
      Formula.Prev (parse_unary st)
  | TONCE ->
      advance st;
      Formula.Once (parse_unary st)
  | TALWAYS ->
      advance st;
      Formula.Historically (parse_unary st)
  | TSTART ->
      advance st;
      Formula.Start (parse_unary st)
  | TEND ->
      advance st;
      Formula.End (parse_unary st)
  | _ -> parse_atom st

and parse_atom st =
  match peek st with
  | TTRUE ->
      advance st;
      Formula.True
  | TFALSE ->
      advance st;
      Formula.False
  | TLBRACKET ->
      advance st;
      let f = parse_formula st in
      expect st TCOMMA "','";
      let g = parse_formula st in
      expect st TRPAREN "')' closing interval";
      Formula.Interval (f, g)
  | TLPAREN ->
      (* Ambiguous: "(x + 1) > 0" is a predicate, "(p and q)" a formula.
         Try the predicate reading first, backtrack on failure. *)
      let saved = save st in
      (try parse_predicate st
       with Error _ ->
         restore st saved;
         advance st;
         let f = parse_formula st in
         expect st TRPAREN "')'";
         f)
  | TINT _ | TIDENT _ | TMINUS -> parse_predicate st
  | _ -> raise (Error "expected formula")

let parse src =
  let st = { toks = tokenize src } in
  let f = parse_formula st in
  if peek st <> TEOF then raise (Error "trailing input");
  f
