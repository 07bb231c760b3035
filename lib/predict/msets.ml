module Mon = Pastltl.Monitor

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* {1 Memo tables}

   Open addressing from a pair of nonnegative ints to an int: three ints
   per slot, [-1] in the first marks an empty one, at most half full. *)
module Memo = struct
  type t = { mutable slots : int array; mutable mask : int; mutable count : int }

  let make cap = { slots = Array.make (3 * cap) (-1); mask = cap - 1; count = 0 }

  let hash a b =
    let h = ((a * 0x2545F4914F6CDD1) + b) * 0x3E3779B97F4A7C1 in
    h lxor (h lsr 32)

  (* The value at (a, b), or -1. *)
  let find t a b =
    let slots = t.slots and mask = t.mask in
    let i = ref (hash a b land mask) and r = ref (-2) in
    while !r = -2 do
      let j = 3 * !i in
      let k = slots.(j) in
      if k < 0 then r := -1
      else if k = a && slots.(j + 1) = b then r := slots.(j + 2)
      else i := (!i + 1) land mask
    done;
    !r

  let rec insert slots mask a b v i =
    let j = 3 * i in
    if slots.(j) < 0 then begin
      slots.(j) <- a;
      slots.(j + 1) <- b;
      slots.(j + 2) <- v
    end
    else insert slots mask a b v ((i + 1) land mask)

  (* (a, b) must be absent. *)
  let add t a b v =
    if 2 * (t.count + 1) > t.mask + 1 then begin
      let old = t.slots in
      let cap = 2 * (t.mask + 1) in
      t.slots <- Array.make (3 * cap) (-1);
      t.mask <- cap - 1;
      for j = 0 to (Array.length old / 3) - 1 do
        let a = old.(3 * j) and b = old.((3 * j) + 1) in
        if a >= 0 then insert t.slots t.mask a b old.((3 * j) + 2) (hash a b land t.mask)
      done
    end;
    insert t.slots t.mask a b v (hash a b land t.mask);
    t.count <- t.count + 1

  (* Forget every entry.  A table sized for over four times what [hint]
     entries need is replaced by one that fits them. *)
  let reset t ~hint =
    let cap = pow2_at_least (2 * hint) 16 in
    if t.mask + 1 > 4 * cap then begin
      t.slots <- Array.make (3 * cap) (-1);
      t.mask <- cap - 1
    end
    else Array.fill t.slots 0 (Array.length t.slots) (-1);
    t.count <- 0

  let mem_words t = Array.length t.slots + 5
end

(* {1 Interning indexes}

   Open addressing over dense ids ([-1]: empty), at most half full; the
   caller supplies the hash and the equality. *)

(* The slot holding an id [same] accepts, or the empty slot where it
   would go. *)
let rec probe (slots : int array) i same =
  let id = slots.(i) in
  if id < 0 || same id then i else probe slots ((i + 1) land (Array.length slots - 1)) same

let reindex len count hash =
  let slots = Array.make len (-1) in
  for id = 0 to count - 1 do
    slots.(probe slots (hash id land (len - 1)) (fun _ -> false)) <- id
  done;
  slots

(* [a] with room for index [n], doubled as needed. *)
let grown a n filler =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 8 (2 * Array.length a)) filler in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let fnv_final h = (h lxor (h lsr 29)) land max_int

let hash_ids (a : int array) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor a.(i)) * 0x01000193
  done;
  fnv_final !h

let hash_bools (a : bool array) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor Bool.to_int a.(i)) * 0x01000193
  done;
  fnv_final !h

let equal_ids (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let i = ref 0 in
  while !i < Array.length a && a.(!i) = b.(!i) do
    incr i
  done;
  !i = Array.length a

let equal_bools (a : bool array) (b : bool array) =
  Array.length a = Array.length b
  &&
  let i = ref 0 in
  while !i < Array.length a && a.(!i) = b.(!i) do
    incr i
  done;
  !i = Array.length a

type t = {
  monitor : Mon.compiled;
  natoms : int;
  values : bool array;  (* scratch: a bit-mask letter's atom values *)
  (* Monitor states, by id. *)
  mutable states : Mon.state array;
  mutable nstates : int;
  mutable state_index : int array;
  (* Sets, by id: their states' ids in [Mon.compare_state] order (equal
     states have equal ids), the hash of that array, and whether some
     state fails. *)
  mutable members : int array array;
  mutable set_hash : int array;
  mutable fails : bool array;
  mutable nsets : int;
  mutable set_index : int array;
  mutable member_words : int;  (* the member arrays' words *)
  (* Letters of a specification with more atoms than an int has bits. *)
  mutable letters : bool array array;
  mutable nletters : int;
  mutable letter_index : int array;
  steps : Memo.t;  (* (set, letter) -> set *)
  unions : Memo.t;  (* (smaller set, larger set) -> set *)
}

let create monitor =
  let natoms = Array.length (Mon.atoms monitor) in
  { monitor;
    natoms;
    values = Array.make natoms false;
    states = [||];
    nstates = 0;
    state_index = Array.make 16 (-1);
    members = [||];
    set_hash = [||];
    fails = [||];
    nsets = 0;
    set_index = Array.make 16 (-1);
    member_words = 0;
    letters = [||];
    nletters = 0;
    letter_index = Array.make 16 (-1);
    steps = Memo.make 16;
    unions = Memo.make 16 }

let narrow t = t.natoms < Sys.int_size

let intern_state t st =
  if 2 * (t.nstates + 1) > Array.length t.state_index then
    t.state_index <-
      reindex (2 * Array.length t.state_index) t.nstates (fun id -> Mon.hash_state t.states.(id));
  let slots = t.state_index in
  let i =
    probe slots
      (Mon.hash_state st land (Array.length slots - 1))
      (fun id -> Mon.compare_state t.states.(id) st = 0)
  in
  if slots.(i) >= 0 then slots.(i)
  else begin
    let id = t.nstates in
    t.states <- grown t.states id st;
    t.states.(id) <- st;
    t.nstates <- id + 1;
    slots.(i) <- id;
    id
  end

(* [mids] in canonical order and distinct. *)
let intern_set t mids =
  if 2 * (t.nsets + 1) > Array.length t.set_index then
    t.set_index <- reindex (2 * Array.length t.set_index) t.nsets (fun id -> t.set_hash.(id));
  let h = hash_ids mids in
  let slots = t.set_index in
  let i =
    probe slots
      (h land (Array.length slots - 1))
      (fun id -> t.set_hash.(id) = h && equal_ids t.members.(id) mids)
  in
  if slots.(i) >= 0 then slots.(i)
  else begin
    let id = t.nsets in
    t.members <- grown t.members id [||];
    t.set_hash <- grown t.set_hash id 0;
    t.fails <- grown t.fails id false;
    t.members.(id) <- mids;
    t.set_hash.(id) <- h;
    t.fails.(id) <- Array.exists (fun m -> not (Mon.verdict t.monitor t.states.(m))) mids;
    t.member_words <- t.member_words + Array.length mids + 1;
    t.nsets <- id + 1;
    slots.(i) <- id;
    id
  end

let intern_letter t values =
  if 2 * (t.nletters + 1) > Array.length t.letter_index then
    t.letter_index <-
      reindex (2 * Array.length t.letter_index) t.nletters (fun id -> hash_bools t.letters.(id));
  let slots = t.letter_index in
  let i =
    probe slots
      (hash_bools values land (Array.length slots - 1))
      (fun id -> equal_bools t.letters.(id) values)
  in
  if slots.(i) >= 0 then slots.(i)
  else begin
    let id = t.nletters in
    t.letters <- grown t.letters id [||];
    t.letters.(id) <- Array.copy values;
    t.nletters <- id + 1;
    slots.(i) <- id;
    id
  end

(* State ids sorted into canonical order, duplicates dropped. *)
let canonical t mids =
  Array.sort (fun a b -> Mon.compare_state t.states.(a) t.states.(b)) mids;
  let n = ref 0 in
  Array.iter
    (fun m ->
      if !n = 0 || mids.(!n - 1) <> m then begin
        mids.(!n) <- m;
        incr n
      end)
    mids;
  if !n = Array.length mids then mids else Array.sub mids 0 !n

let of_states t states =
  intern_set t (canonical t (Array.of_list (List.map (intern_state t) states)))

let values t letter =
  if narrow t then begin
    for a = 0 to t.natoms - 1 do
      t.values.(a) <- (letter lsr a) land 1 = 1
    done;
    t.values
  end
  else t.letters.(letter)

let step t s l =
  let r = Memo.find t.steps s l in
  if r >= 0 then r
  else begin
    let values = values t l in
    let r =
      intern_set t
        (canonical t
           (Array.map
              (fun m -> intern_state t (Mon.step_atoms t.monitor t.states.(m) values))
              t.members.(s)))
    in
    Memo.add t.steps s l r;
    r
  end

(* Two canonical id arrays merged into one. *)
let merge t x y =
  let nx = Array.length x and ny = Array.length y in
  let out = Array.make (nx + ny) 0 in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !i < nx || !j < ny do
    let c =
      if !i = nx then 1
      else if !j = ny then -1
      else if x.(!i) = y.(!j) then 0
      else Mon.compare_state t.states.(x.(!i)) t.states.(y.(!j))
    in
    if c <= 0 then begin
      out.(!n) <- x.(!i);
      incr i;
      if c = 0 then incr j
    end
    else begin
      out.(!n) <- y.(!j);
      incr j
    end;
    incr n
  done;
  if !n = nx + ny then out else Array.sub out 0 !n

let union t a b =
  if a = b then a
  else begin
    let lo = if a < b then a else b and hi = if a < b then b else a in
    let r = Memo.find t.unions lo hi in
    if r >= 0 then r
    else begin
      let r = intern_set t (merge t t.members.(lo) t.members.(hi)) in
      Memo.add t.unions lo hi r;
      r
    end
  end

let cardinal t s = Array.length t.members.(s)
let failing t s = t.fails.(s)
let elements t s = Array.fold_right (fun m acc -> t.states.(m) :: acc) t.members.(s) []
let population t = t.nstates + t.nsets + t.nletters + t.steps.count + t.unions.count

(* Everything is re-interned into fresh tables through [roots]' maps, so
   the kept ids are dense in first-use order and every table is sized
   for what it keeps. *)
let compact t roots =
  let old_states = t.states and old_members = t.members and old_letters = t.letters in
  let state_to = Array.make t.nstates (-1)
  and set_to = Array.make t.nsets (-1)
  and letter_to = Array.make t.nletters (-1) in
  t.states <- [||];
  t.nstates <- 0;
  t.state_index <- Array.make 16 (-1);
  t.members <- [||];
  t.set_hash <- [||];
  t.fails <- [||];
  t.nsets <- 0;
  t.set_index <- Array.make 16 (-1);
  t.member_words <- 0;
  t.letters <- [||];
  t.nletters <- 0;
  t.letter_index <- Array.make 16 (-1);
  let state m =
    if state_to.(m) < 0 then state_to.(m) <- intern_state t old_states.(m);
    state_to.(m)
  in
  let set s =
    if set_to.(s) < 0 then set_to.(s) <- intern_set t (Array.map state old_members.(s));
    set_to.(s)
  in
  let letter l =
    if narrow t then l
    else begin
      if letter_to.(l) < 0 then letter_to.(l) <- intern_letter t old_letters.(l);
      letter_to.(l)
    end
  in
  roots ~set ~letter;
  Memo.reset t.steps ~hint:t.nsets;
  Memo.reset t.unions ~hint:t.nsets

let mem_words t =
  Array.length t.states
  + (t.nstates * (Mon.width t.monitor + 1))
  + Array.length t.state_index
  + Array.length t.members + t.member_words + Array.length t.set_hash + Array.length t.fails
  + Array.length t.set_index
  + Array.length t.letters
  + (t.nletters * (t.natoms + 1))
  + Array.length t.letter_index + Memo.mem_words t.steps + Memo.mem_words t.unions + t.natoms
  + 30
