(** Parser for the specification language's concrete syntax.

    Grammar:
    {v
    formula  ::= since ("==>"  formula)?          right-associative
    since    ::= or ("since" or)?
    or       ::= and ("or" and)*
    and      ::= unary ("and" unary)*
    unary    ::= ("!"|"prev"|"once"|"always"|"start"|"end") unary | atom
    atom     ::= "true" | "false"
               | "[" formula "," formula ")"      the interval operator
               | "(" formula ")"
               | predicate
    predicate::= aexp ("=="|"!="|"<"|"<="|">"|">=") aexp
    aexp     ::= term (("+"|"-") term)*
    term     ::= factor "*" factor | factor
    factor   ::= int | ident | "-" factor | "(" aexp ")"
    v}

    A leading ["("] is ambiguous between a parenthesized formula and a
    parenthesized arithmetic expression; the parser backtracks. *)

exception Error of string

val parse : string -> Formula.t
(** @raise Error on malformed input. *)
