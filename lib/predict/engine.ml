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

(* {1 The engine interface} *)

type instance = {
  name : string;
  feed : Message.t -> unit;
  end_of_thread : Types.tid -> unit;
  finish : unit -> unit;
  violated : unit -> bool;
  verdict : unit -> string;
  events : unit -> int;
  buffered : unit -> int;
  out_of_order : unit -> int;
  missing : unit -> (Types.tid * int) option;
  snapshot : unit -> string list;
}

type ctx = {
  nthreads : int;
  init : (Types.var * Types.value) list;
  spec : Pastltl.Formula.t option;
  max_buffered : int option;
  overflow_limit : int option;
  start : Causal.snapshot option;
}

type factory = {
  create : ctx -> instance;
  restore : ctx -> string list -> instance;
}

(* {1 Registry} *)

let registry : (string, factory) Hashtbl.t = Hashtbl.create 8

let register name factory =
  if Hashtbl.mem registry name then
    invalid_arg (Printf.sprintf "Engine.register: %S already registered" name);
  Hashtbl.replace registry name factory

let find name = Hashtbl.find_opt registry name

let names () =
  Hashtbl.fold (fun name _ acc -> name :: acc) registry []
  |> List.sort String.compare

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

   Engine snapshots are persisted as opaque line blocks inside the
   checkpoint file; these helpers keep the per-engine codecs small and
   the error messages uniform.  Variable names never contain spaces
   (TML identifiers plus the reserved [#...:] prefixes) and
   [Vclock.to_string] is space-free, so fields are space-separated. *)

module Snapshot = struct
  type reader = { mutable lines : string list }

  let reader lines = { lines }

  let eof r = r.lines = []

  let line ~what r =
    match r.lines with
    | [] -> invalid_arg (what ^ ": truncated engine snapshot")
    | l :: rest ->
        r.lines <- rest;
        l

  let words l = String.split_on_char ' ' l |> List.filter (fun s -> s <> "")

  let int ~what s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "%s: bad integer %S" what s)

  let clock ~what s =
    match Vclock.of_string s with
    | v -> v
    | exception Invalid_argument _ ->
        invalid_arg (Printf.sprintf "%s: bad clock %S" what s)

  let keyed ~what ~key r =
    match words (line ~what r) with
    | k :: rest when k = key -> rest
    | k :: _ ->
        invalid_arg (Printf.sprintf "%s: expected %S line, found %S" what key k)
    | [] -> invalid_arg (Printf.sprintf "%s: expected %S line, found blank" what key)

  let push lines l = lines := l :: !lines

  (* Sync-only clocks. *)

  let add_syncclock lines (s : Syncclock.snapshot) =
    push lines
      ("vi "
      ^ String.concat " "
          (Array.to_list (Array.map Vclock.to_string s.Syncclock.snap_vi)));
    let table key bindings =
      push lines (Printf.sprintf "%s %d" key (List.length bindings));
      List.iter
        (fun (x, v) -> push lines (Printf.sprintf "kv %s %s" x (Vclock.to_string v)))
        bindings
    in
    table "va" s.Syncclock.snap_va;
    table "vw" s.Syncclock.snap_vw

  let read_syncclock ~what r =
    let vi =
      keyed ~what ~key:"vi" r |> List.map (clock ~what) |> Array.of_list
    in
    let table key =
      match keyed ~what ~key r with
      | [ n ] ->
          List.init (int ~what n) (fun _ ->
              match keyed ~what ~key:"kv" r with
              | [ x; v ] -> (x, clock ~what v)
              | _ -> invalid_arg (what ^ ": malformed kv line"))
      | _ -> invalid_arg (Printf.sprintf "%s: malformed %s line" what key)
    in
    let va = table "va" in
    let vw = table "vw" in
    Syncclock.restore
      { Syncclock.snap_vi = vi; snap_va = va; snap_vw = vw }

  (* Causal delivery buffer. *)

  let add_causal lines (s : Causal.snapshot) =
    push lines
      ("delivered "
      ^ String.concat " "
          (Array.to_list (Array.map string_of_int s.Causal.snap_delivered)));
    push lines
      ("ended "
      ^ String.concat " "
          (Array.to_list
             (Array.map (fun b -> if b then "1" else "0") s.Causal.snap_ended)));
    push lines
      (Printf.sprintf "progress %d %d" s.Causal.snap_peak_buffered
         s.Causal.snap_delivered_total);
    push lines (Printf.sprintf "pending %d" (List.length s.Causal.snap_pending));
    List.iter
      (fun (m : Message.t) ->
        push lines
          (Printf.sprintf "msg %d %d %s %d %s" m.Message.eid m.Message.tid
             m.Message.var m.Message.value
             (Vclock.to_string m.Message.mvc)))
      s.Causal.snap_pending

  let read_causal ~what ?max_buffered ?overflow_limit r =
    let delivered =
      keyed ~what ~key:"delivered" r |> List.map (int ~what) |> Array.of_list
    in
    let ended =
      keyed ~what ~key:"ended" r
      |> List.map (fun s -> int ~what s <> 0)
      |> Array.of_list
    in
    let peak, total =
      match keyed ~what ~key:"progress" r with
      | [ p; t ] -> (int ~what p, int ~what t)
      | _ -> invalid_arg (what ^ ": malformed progress line")
    in
    let pending =
      match keyed ~what ~key:"pending" r with
      | [ n ] ->
          List.init (int ~what n) (fun _ ->
              match keyed ~what ~key:"msg" r with
              | [ eid; tid; var; value; mvc ] ->
                  Message.make ~eid:(int ~what eid) ~tid:(int ~what tid) ~var
                    ~value:(int ~what value) ~mvc:(clock ~what mvc)
              | _ -> invalid_arg (what ^ ": malformed msg line"))
      | _ -> invalid_arg (what ^ ": malformed pending line")
    in
    Causal.restore ?max_buffered ?overflow_limit
      { Causal.snap_delivered = delivered;
        snap_ended = ended;
        snap_pending = pending;
        snap_peak_buffered = peak;
        snap_delivered_total = total }
end
