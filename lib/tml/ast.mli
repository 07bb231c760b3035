(** Abstract syntax of TML, the Threaded Mini Language.

    TML is the substrate standing in for the paper's multithreaded Java
    programs: a fixed set of threads communicating through shared integer
    variables, with locks and condition variables that the instrumentation
    lowers to dummy-variable writes (paper, Section 3.1).

    Granularity: every read and every write of a {e shared} variable is
    one atomic event, as the paper's sequential-consistency model assumes
    (Section 2.1). Local variables are thread-private and produce no
    events. *)

type unop = Neg  (** arithmetic negation *) | Not  (** logical negation: [!e] *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And  (** short-circuit; nonzero is true *)
  | Or   (** short-circuit *)

type expr =
  | Int of int
  | Var of string  (** shared or local, resolved by {!Typecheck} *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Choose of expr list
      (** [choose(e1,...,ek)]: nondeterministically select one branch
          (decided by the scheduler) and evaluate only that branch; models
          environment nondeterminism such as the paper's
          "possibly change value of radio". *)

type stmt =
  | Skip
  | Nop of int  (** [nop k;]: [k] internal events — irrelevant code *)
  | Assign of string * expr
  | Local_decl of string * expr  (** [local v = e;] *)
  | Seq of stmt list
  | If of expr * stmt * stmt
  | While of expr * stmt
  | Lock of string
  | Unlock of string
  | Sync of string * stmt  (** [sync (m) { s }] — Java synchronized block *)
  | Wait of string
  | Notify of string  (** wakes every thread waiting on the condition *)
  | Spawn of string
      (** [spawn t;]: activate the dormant thread named [t]. Threads that
          are the target of some [spawn] start dormant; {!Desugar} lowers
          activation to a handshake over a dummy synchronization variable,
          so the spawner's past happens-before the child's events — the
          paper's dynamic-thread extension on a fixed thread pool. *)
  | Join of string
      (** [join t;]: block until thread [t] has terminated; the child's
          past happens-before the joiner's subsequent events. *)

type thread = { tname : string; body : stmt }

type program = {
  shared : (string * int) list;  (** declarations with initial values *)
  threads : thread list;
}

val seq : stmt list -> stmt
(** Smart constructor: flattens nested sequences and drops [Skip]. *)

val program : shared:(string * int) list -> threads:(string * stmt) list -> program
