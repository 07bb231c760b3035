type t = int array

let dim = Array.length

let check_dim n = if n <= 0 then invalid_arg "Vclock: dimension must be positive"

let zero n =
  check_dim n;
  Array.make n 0

let get v j =
  if j < 0 || j >= Array.length v then invalid_arg "Vclock.get: index out of bounds";
  v.(j)

let set v j k =
  if j < 0 || j >= Array.length v then invalid_arg "Vclock.set: index out of bounds";
  if k < 0 then invalid_arg "Vclock.set: negative component";
  let w = Array.copy v in
  w.(j) <- k;
  w

let inc v j = set v j (get v j + 1)

let same_dim v w =
  if Array.length v <> Array.length w then invalid_arg "Vclock: dimension mismatch"

let max v w =
  same_dim v w;
  Array.init (Array.length v) (fun j -> Stdlib.max v.(j) w.(j))

let leq v w =
  same_dim v w;
  let rec go j = j >= Array.length v || (v.(j) <= w.(j) && go (j + 1)) in
  go 0

let equal v w =
  same_dim v w;
  v = w

let lt v w = leq v w && not (equal v w)
let compare = Stdlib.compare
let concurrent v w = (not (leq v w)) && not (leq w v)

let of_array a =
  check_dim (Array.length a);
  Array.iter (fun k -> if k < 0 then invalid_arg "Vclock.of_array: negative component") a;
  Array.copy a

let to_array = Array.copy
let of_list l = of_array (Array.of_list l)
let to_list = Array.to_list
let sum = Array.fold_left ( + ) 0

let pp ppf v =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (to_list v)

(* Decimal width of a component; a negative one (only reachable through
   the mutable interface) falls back to [string_of_int]. *)
let rec nat_digits k = if k < 10 then 1 else 1 + nat_digits (k / 10)
let digits k = if k >= 0 then nat_digits k else String.length (string_of_int k)

(* Write [k] so that its last digit lands at [last]. *)
let rec blit_nat b last k =
  Bytes.unsafe_set b last (Char.unsafe_chr (48 + (k mod 10)));
  if k >= 10 then blit_nat b (last - 1) (k / 10)

(* [pp]'s text, built into one string of precomputed length: clocks are
   rendered once per stored message on every checkpoint, where a
   formatter and a buffer per call cost more than the message itself. *)
let to_string v =
  let n = Array.length v in
  let len = ref (n + 1 + if n = 0 then 1 else 0) in
  for j = 0 to n - 1 do
    len := !len + digits v.(j)
  done;
  let b = Bytes.create !len in
  Bytes.unsafe_set b 0 '(';
  let pos = ref 1 in
  for j = 0 to n - 1 do
    if j > 0 then begin
      Bytes.unsafe_set b !pos ',';
      incr pos
    end;
    let k = v.(j) in
    let d = digits k in
    if k >= 0 then blit_nat b (!pos + d - 1) k
    else Bytes.blit_string (string_of_int k) 0 b !pos d;
    pos := !pos + d
  done;
  Bytes.unsafe_set b !pos ')';
  Bytes.unsafe_to_string b

let rec add_nat buf k =
  if k >= 10 then add_nat buf (k / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (k mod 10)))

let add_int buf k = if k >= 0 then add_nat buf k else Buffer.add_string buf (string_of_int k)

let add_to_buffer buf v =
  Buffer.add_char buf '(';
  for j = 0 to Array.length v - 1 do
    if j > 0 then Buffer.add_char buf ',';
    add_int buf v.(j)
  done;
  Buffer.add_char buf ')'

let of_string s =
  let n = String.length s in
  if n < 2 || s.[0] <> '(' || s.[n - 1] <> ')' then
    invalid_arg "Vclock.of_string: expected (k0,k1,...)";
  let body = String.sub s 1 (n - 2) in
  let parts = String.split_on_char ',' body in
  let ints =
    List.map
      (fun p ->
        match int_of_string_opt (String.trim p) with
        | Some k -> k
        | None -> invalid_arg "Vclock.of_string: malformed component")
      parts
  in
  of_list ints

let hash = Hashtbl.hash

(* {1 Mutable clocks} *)

let join_into (dst : int array) (src : int array) ~own =
  let raised = ref false in
  for j = 0 to Array.length src - 1 do
    let s = Array.unsafe_get src j in
    if s > Array.unsafe_get dst j then begin
      Array.unsafe_set dst j s;
      if j <> own then raised := true
    end
  done;
  !raised

let assign (dst : int array) (src : int array) =
  if Array.length dst = 0 then Array.copy src
  else begin
    (* A loop of int stores: [Array.blit] into an array that has left
       the minor heap goes through the write barrier per element. *)
    for j = 0 to Array.length src - 1 do
      Array.unsafe_set dst j (Array.unsafe_get src j)
    done;
    dst
  end

let freeze = Array.copy
