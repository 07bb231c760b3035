open Trace

(* {1 Engine selection} *)

type kind = Lattice | Race | Atomicity

let kind_to_string = function
  | Lattice -> "lattice"
  | Race -> "race"
  | Atomicity -> "atomicity"

let kind_of_string = function
  | "lattice" -> Some Lattice
  | "race" -> Some Race
  | "atomicity" -> Some Atomicity
  | _ -> None

let default_kinds = [ Lattice ]

let kinds_to_string kinds = String.concat "," (List.map kind_to_string kinds)

let kinds_of_string s =
  let names =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  if names = [] then Error "no engine named"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          match kind_of_string n with
          | None ->
              Error
                (Printf.sprintf "unknown engine %S (known: lattice, race, atomicity)" n)
          | Some k -> go (if List.mem k acc then acc else k :: acc) rest)
    in
    go [] names

let names () = [ kind_to_string Atomicity; kind_to_string Race ]

(* {1 Replaying a recorded execution}

   [jmpax check] holds the whole execution in memory; the streaming
   engines consume messages.  Replaying the execution through Algorithm
   A with the all-events relevance synthesizes exactly the message
   stream [jmpax run --engine race,...] would have recorded, so the two
   front ends stay byte-comparable. *)

let messages_of_exec exec =
  let emitter =
    Mvc.Emitter.create ~nthreads:(Exec.nthreads exec) ~init:(Exec.init exec)
      ~relevance:Mvc.Relevance.all_events ()
  in
  Array.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Internal -> Mvc.Emitter.on_internal emitter e.Event.tid
      | Event.Read (x, v) -> Mvc.Emitter.on_read emitter e.Event.tid x v
      | Event.Write (x, v) -> Mvc.Emitter.on_write emitter e.Event.tid x v)
    (Exec.events exec);
  snd (Mvc.Emitter.finish emitter)

(* {1 Snapshot line codec}

   Engine snapshots are persisted as line blocks inside the checkpoint
   file, and the checkpoint body itself is read through the same
   readers.  Variable names never contain spaces (TML identifiers plus
   the reserved [#...:] prefixes) and [Vclock.to_string] is space-free,
   so a line splits at single spaces; a number, a bit string or a comma
   list reads back only in the spelling an encoder writes. *)

module Snapshot = struct
  type reader = { mutable lines : string list }

  let reader lines = { lines }

  let eof r = r.lines = []

  let next_key r =
    match r.lines with
    | l :: _ -> Some (match String.index_opt l ' ' with Some i -> String.sub l 0 i | None -> l)
    | [] -> None

  let line ~what r =
    match r.lines with
    | [] -> invalid_arg (what ^ ": truncated snapshot")
    | l :: rest ->
        r.lines <- rest;
        l

  let fields ~what ~key ?n r =
    let l = line ~what r in
    match String.split_on_char ' ' l with
    | k :: rest when k = key ->
        let f = Array.of_list rest in
        if Array.exists (fun s -> s = "") f then
          invalid_arg (Printf.sprintf "%s: empty field in %S" what l);
        (match n with
        | Some n when Array.length f <> n ->
            invalid_arg
              (Printf.sprintf "%s: %d fields where %d belong in %S" what (Array.length f) n l)
        | _ -> ());
        f
    | _ -> invalid_arg (Printf.sprintf "%s: expected %S line, found %S" what key l)

  (* The one spelling [string_of_int] writes: digits, no leading zero. *)
  let decimal s =
    s <> ""
    && String.for_all (function '0' .. '9' -> true | _ -> false) s
    && (s = "0" || s.[0] <> '0')

  let nat ~what s =
    match int_of_string_opt s with
    | Some n when decimal s -> n
    | _ -> invalid_arg (Printf.sprintf "%s: bad natural %S" what s)

  let int ~what s =
    let digits =
      if String.starts_with ~prefix:"-" s then String.sub s 1 (String.length s - 1) else s
    in
    match int_of_string_opt s with
    | Some n when decimal digits && s <> "-0" -> n
    | _ -> invalid_arg (Printf.sprintf "%s: bad integer %S" what s)

  let clock ~what s =
    let n = String.length s in
    if n >= 2 && s.[0] = '(' && s.[n - 1] = ')' then
      Vclock.of_list (List.map (nat ~what) (String.split_on_char ',' (String.sub s 1 (n - 2))))
    else invalid_arg (Printf.sprintf "%s: bad clock %S" what s)

  let push lines l = lines := l :: !lines

  let push_counted lines key items render =
    push lines (Printf.sprintf "%s %d" key (List.length items));
    List.iter (fun x -> List.iter (push lines) (render x)) items

  let counted ~what ~key r item =
    List.init (nat ~what (fields ~what ~key ~n:1 r).(0)) (fun _ -> item ())

  let many ~key r item =
    let rec go acc = if next_key r = Some key then go (item () :: acc) else List.rev acc in
    go []

  let bits ~what s =
    if s <> "" && String.for_all (fun c -> c = '0' || c = '1') s then s
    else invalid_arg (Printf.sprintf "%s: bad bit string %S" what s)

  let check_width ~what ~width n =
    if n <> width then
      invalid_arg (Printf.sprintf "%s: %d wide, disagrees with %d threads" what n width)

  let bools ~what ~width s =
    let s = bits ~what s in
    check_width ~what ~width (String.length s);
    Array.init width (fun i -> s.[i] = '1')

  let nats ~what ~width s =
    let a = Array.of_list (List.map (nat ~what) (String.split_on_char ',' s)) in
    check_width ~what ~width (Array.length a);
    a
end
