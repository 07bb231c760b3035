(* Bench-local spans for the traced run.

   Each span is a call into one layer, recorded from the benchmark's own
   code: name, start, end, the span that caused it, the request it
   belongs to, and the words the call allocated.  Spans stay in memory
   and are summarized (self time per name) or written as a Chrome trace
   when the run ends.  The library's own telemetry stays off.

   Calls made once per message (a decode step, an engine's feed) are
   tallies instead: only their count, time and words are kept, per
   name, and their time is taken out of the enclosing span's self time.
   They appear in the self-time table, not in the Chrome trace.  A tally
   costs about as much as a cheap call it times, so the time and words
   an empty tally measures (its tare, taken at [reset]) are deducted per
   call. *)

type t = {
  id : int;  (** creation order *)
  name : string;
  request : int;
  parent : int;  (** index of the enclosing span, [-1] at top level *)
  start : float;
  stop : float;
  words : float;
  tallied : float;  (** time covered by tallies made directly inside *)
}

type opened = { oid : int; mutable covered : float }

type tally = {
  t_name : string;
  mutable t_calls : int;
  mutable t_time : float;
  mutable t_words : float;
}

let recorded : t list ref = ref []
let count = ref 0
let stack : opened list ref = ref []
let request = ref 0
let tallies : tally list ref = ref []
let tare = ref 0.0
let tare_words = ref 0.0

let set_request r = request := r

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let with_ name f =
  let id = !count in
  incr count;
  let parent = match !stack with p :: _ -> p.oid | [] -> -1 in
  let opened = { oid = id; covered = 0.0 } in
  stack := opened :: !stack;
  let w0 = allocated () in
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    let words = allocated () -. w0 in
    stack := List.tl !stack;
    recorded :=
      { id; name; request = !request; parent; start; stop; words; tallied = opened.covered }
      :: !recorded
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let tally name =
  match List.find_opt (fun t -> t.t_name = name) !tallies with
  | Some t -> t
  | None ->
      let t = { t_name = name; t_calls = 0; t_time = 0.0; t_words = 0.0 } in
      tallies := t :: !tallies;
      t

(* Minor words only: [Gc.minor_words] does not allocate, so a tally
   costs two clock reads and two counter reads. *)
let tallied t f =
  let w0 = Gc.minor_words () in
  let start = Unix.gettimeofday () in
  let finish () =
    let dt = Unix.gettimeofday () -. start in
    t.t_calls <- t.t_calls + 1;
    t.t_time <- t.t_time +. dt;
    t.t_words <- t.t_words +. (Gc.minor_words () -. w0);
    match !stack with o :: _ -> o.covered <- o.covered +. dt | [] -> ()
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let reset () =
  recorded := [];
  count := 0;
  stack := [];
  request := 0;
  List.iter
    (fun t ->
      t.t_calls <- 0;
      t.t_time <- 0.0;
      t.t_words <- 0.0)
    !tallies;
  let empty = { t_name = ""; t_calls = 0; t_time = 0.0; t_words = 0.0 } in
  for _ = 1 to 20_000 do
    tallied empty ignore
  done;
  tare := empty.t_time /. float_of_int empty.t_calls;
  tare_words := empty.t_words /. float_of_int empty.t_calls

(* Spans in creation order: the span at index [i] has id [i]. *)
let all () =
  let a = Array.of_list !recorded in
  Array.sort (fun x y -> compare x.id y.id) a;
  a

type summary = {
  s_name : string;
  calls : int;
  total : float;  (** seconds *)
  self : float;  (** seconds not covered by child spans *)
  s_words : float;
}

(* Self time per span name: a span's duration minus the part its
   direct children and tallies cover. *)
let summarize () =
  let spans = all () in
  let child_time = Array.map (fun s -> s.tallied) spans in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        child_time.(s.parent) <- child_time.(s.parent) +. (s.stop -. s.start))
    spans;
  let table = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let dur = s.stop -. s.start in
      let prev =
        match Hashtbl.find_opt table s.name with
        | Some p -> p
        | None -> { s_name = s.name; calls = 0; total = 0.0; self = 0.0; s_words = 0.0 }
      in
      Hashtbl.replace table s.name
        { prev with
          calls = prev.calls + 1;
          total = prev.total +. dur;
          self = prev.self +. (dur -. child_time.(i));
          s_words = prev.s_words +. s.words })
    spans;
  List.iter
    (fun t ->
      let net total per = Float.max 0.0 (total -. (float_of_int t.t_calls *. per)) in
      let time = net t.t_time !tare in
      if t.t_calls > 0 then
        Hashtbl.replace table t.t_name
          { s_name = t.t_name; calls = t.t_calls; total = time; self = time;
            s_words = net t.t_words !tare_words })
    !tallies;
  Hashtbl.fold (fun _ v acc -> v :: acc) table []
  |> List.sort (fun a b -> compare b.self a.self)

let self_of summaries name =
  match List.find_opt (fun s -> s.s_name = name) summaries with
  | Some s -> s.self
  | None -> 0.0

(* The traced run's spans as a Chrome trace (chrome://tracing,
   Perfetto): one complete event per span, requests as threads. *)
let write_chrome path =
  let spans = all () in
  let t0 = if Array.length spans = 0 then 0.0 else spans.(0).start in
  let oc = open_out path in
  output_string oc "[";
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %s, \"dur\": %s, \
         \"args\": {\"words\": %s}}"
        (if i = 0 then "" else ",")
        (Json.escape s.name) s.request
        (Json.number ((s.start -. t0) *. 1e6))
        (Json.number ((s.stop -. s.start) *. 1e6))
        (Json.number s.words))
    spans;
  output_string oc "\n]\n";
  close_out oc
