(* Atomic-backed metrics with a global name registry.  The [enabled]
   gate is the hot-path contract: sites branch on it once and only then
   touch their (pre-created) handles, so a disabled run pays one atomic
   load per site and allocates nothing. *)

type counter = { c_name : string; c : int Atomic.t }
type gauge = { g_name : string; g : int Atomic.t }

(* Bucket 0 holds values <= 0; bucket k (1 <= k <= 62) holds
   [2^(k-1), 2^k).  63 buckets cover every OCaml int. *)
let nbuckets = 63

type histogram = {
  h_name : string;
  buckets : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_max : int Atomic.t;
}

type series = {
  s_name : string;
  s_cap : int;
  s_mutex : Mutex.t;
  mutable s_data : int array;
  mutable s_len : int;
  mutable s_dropped : int;
}

(* A fixed ring of time slots, each [w_width] seconds wide and holding
   the sum of the deltas recorded during it.  Slots are keyed by their
   epoch (floor (t / width)) so a stale slot is recognized and zeroed
   lazily on the next write that lands in it — advancing time costs
   nothing.  Rolling sums read the last [k] epochs back from [now]. *)
type window = {
  w_name : string;
  w_width : float;
  w_mutex : Mutex.t;
  w_epochs : int array;
  w_sums : int array;
  mutable w_last : float;  (** largest time ever passed to [window_add] *)
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Series of series
  | Window of window

let on = Atomic.make false
let enabled () = Atomic.get on
let enable () = Atomic.set on true

(* The deep tier: per-level / per-intern diagnostics inside the lattice
   engine (level expansion, interning probe stats, level series).
   They cost real time on the per-event hot path, so the always-on
   operational registry (a serving daemon's [--live-metrics]) leaves
   them off; [--metrics] — an explicit profiling request — turns both
   tiers on.  [deep] is only ever true while [on] is, so a single load
   of [deep] is the whole hot-path branch. *)
let deep = Atomic.make false
let deep_enabled () = Atomic.get deep

let enable_deep () =
  Atomic.set on true;
  Atomic.set deep true

let disable () =
  Atomic.set deep false;
  Atomic.set on false

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Series _ -> "series"
  | Window _ -> "window"

(* Get-or-create under the registry mutex; [project] rejects a name
   already bound to a different kind. *)
let intern name make project =
  Mutex.lock registry_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mutex)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match project m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Telemetry.Metrics: %S is already a %s" name
                   (kind_name m)))
      | None ->
          let m = make () in
          Hashtbl.replace registry name m;
          match project m with Some v -> v | None -> assert false)

let counter name =
  intern name
    (fun () -> Counter { c_name = name; c = Atomic.make 0 })
    (function Counter c -> Some c | _ -> None)

let gauge name =
  intern name
    (fun () -> Gauge { g_name = name; g = Atomic.make 0 })
    (function Gauge g -> Some g | _ -> None)

let histogram name =
  intern name
    (fun () ->
      Histogram
        { h_name = name;
          buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0;
          h_max = Atomic.make 0 })
    (function Histogram h -> Some h | _ -> None)

let series ?(cap = 4096) name =
  intern name
    (fun () ->
      Series
        { s_name = name;
          s_cap = max 1 cap;
          s_mutex = Mutex.create ();
          s_data = [||];
          s_len = 0;
          s_dropped = 0 })
    (function Series s -> Some s | _ -> None)

let incr c = ignore (Atomic.fetch_and_add c.c 1)
let add c n = ignore (Atomic.fetch_and_add c.c n)
let value c = Atomic.get c.c

let set g v = Atomic.set g.g v

let rec set_max g v =
  let cur = Atomic.get g.g in
  if v > cur && not (Atomic.compare_and_set g.g cur v) then set_max g v

let gauge_value g = Atomic.get g.g

let bucket_of v =
  if v <= 0 then 0
  else begin
    let k = ref 0 in
    let v = ref v in
    while !v > 0 do
      Stdlib.incr k;
      v := !v lsr 1
    done;
    min !k (nbuckets - 1)
  end

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let observe h v =
  ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add h.h_count 1);
  ignore (Atomic.fetch_and_add h.h_sum v);
  atomic_max h.h_max v

let hist_count h = Atomic.get h.h_count
let hist_sum h = Atomic.get h.h_sum
let hist_max h = Atomic.get h.h_max

let hist_bucket h k =
  if k < 0 || k >= nbuckets then invalid_arg "Metrics.hist_bucket: bad bucket";
  Atomic.get h.buckets.(k)

(* Mirror support: overwrite a counter with an externally-maintained
   value (e.g. the serve control-plane counters synced every tick). *)
let set_counter c v = Atomic.set c.c v

(* Estimate the [q]-quantile (0 <= q <= 1) of the observations by
   walking the cumulative bucket counts and interpolating linearly
   inside the log2 bucket that contains the target rank.  Bucket 0
   (v <= 0) estimates as 0; the top nonempty bucket's upper edge is
   clamped to the observed max so p99 never exceeds it.  Monotone in
   [q] by construction: the target rank is monotone, cumulative counts
   are non-decreasing, and within a bucket the interpolation is linear. *)
let hist_quantile h q =
  let count = Atomic.get h.h_count in
  if count = 0 then 0.0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let target = q *. float_of_int count in
    (* Highest nonempty bucket, for max-clamping its upper edge. *)
    let top = ref 0 in
    for k = 0 to nbuckets - 1 do
      if Atomic.get h.buckets.(k) > 0 then top := k
    done;
    let rec walk k cum =
      if k >= nbuckets then float_of_int (Atomic.get h.h_max)
      else
        let n = Atomic.get h.buckets.(k) in
        let cum' = cum + n in
        if n > 0 && float_of_int cum' >= target then
          if k = 0 then 0.0
          else begin
            let lo = float_of_int (1 lsl (k - 1)) in
            let hi =
              if k = !top then
                Float.max lo (float_of_int (Atomic.get h.h_max))
              else float_of_int (1 lsl k)
            in
            let frac = (target -. float_of_int cum) /. float_of_int n in
            lo +. ((hi -. lo) *. frac)
          end
        else walk (k + 1) cum'
    in
    walk 0 0
  end

let default_window_slots = 64

let window ?(slots = default_window_slots) ?(width = 1.0) name =
  if slots < 1 then invalid_arg "Metrics.window: slots < 1";
  if width <= 0.0 then invalid_arg "Metrics.window: width <= 0";
  intern name
    (fun () ->
      Window
        { w_name = name;
          w_width = width;
          w_mutex = Mutex.create ();
          w_epochs = Array.make slots min_int;
          w_sums = Array.make slots 0;
          w_last = 0.0 })
    (function Window w -> Some w | _ -> None)

let window_epoch w now =
  let now = if now < 0.0 then 0.0 else now in
  int_of_float (now /. w.w_width)

let window_add w ~now n =
  Mutex.lock w.w_mutex;
  let e = window_epoch w now in
  let i = e mod Array.length w.w_sums in
  if w.w_epochs.(i) <> e then begin
    w.w_epochs.(i) <- e;
    w.w_sums.(i) <- 0
  end;
  w.w_sums.(i) <- w.w_sums.(i) + n;
  if now > w.w_last then w.w_last <- now;
  Mutex.unlock w.w_mutex

(* Sum of deltas recorded in the last [ceil (span / width)] slots up to
   and including the slot containing [now].  Aligned to slot
   boundaries, so with span = slots * width and all pushes within that
   range the sum is exact (the qcheck law in the test suite). *)
let window_sum w ~now ~span =
  Mutex.lock w.w_mutex;
  let e_now = window_epoch w now in
  let k =
    let raw = int_of_float (Float.ceil (span /. w.w_width)) in
    max 1 (min raw (Array.length w.w_sums))
  in
  let total = ref 0 in
  let slots = Array.length w.w_sums in
  for d = 0 to k - 1 do
    let e = e_now - d in
    if e >= 0 then begin
      let i = e mod slots in
      if w.w_epochs.(i) = e then total := !total + w.w_sums.(i)
    end
  done;
  Mutex.unlock w.w_mutex;
  !total

let window_rate w ~now ~span =
  if span <= 0.0 then 0.0
  else
    let k =
      let raw = int_of_float (Float.ceil (span /. w.w_width)) in
      max 1 (min raw (Array.length w.w_sums))
    in
    float_of_int (window_sum w ~now ~span) /. (float_of_int k *. w.w_width)

let window_last w =
  Mutex.lock w.w_mutex;
  let t = w.w_last in
  Mutex.unlock w.w_mutex;
  t

let push s v =
  Mutex.lock s.s_mutex;
  if s.s_len >= s.s_cap then s.s_dropped <- s.s_dropped + 1
  else begin
    if s.s_len = Array.length s.s_data then begin
      let data = Array.make (max 16 (min s.s_cap (2 * s.s_len))) 0 in
      Array.blit s.s_data 0 data 0 s.s_len;
      s.s_data <- data
    end;
    s.s_data.(s.s_len) <- v;
    s.s_len <- s.s_len + 1
  end;
  Mutex.unlock s.s_mutex

let series_values s =
  Mutex.lock s.s_mutex;
  let l = Array.to_list (Array.sub s.s_data 0 s.s_len) in
  Mutex.unlock s.s_mutex;
  l

let all_metrics () =
  Mutex.lock registry_mutex;
  let l = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  Mutex.unlock registry_mutex;
  let name = function
    | Counter c -> c.c_name
    | Gauge g -> g.g_name
    | Histogram h -> h.h_name
    | Series s -> s.s_name
    | Window w -> w.w_name
  in
  List.sort (fun a b -> String.compare (name a) (name b)) l

let reset () =
  List.iter
    (function
      | Counter c -> Atomic.set c.c 0
      | Gauge g -> Atomic.set g.g 0
      | Histogram h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum 0;
          Atomic.set h.h_max 0
      | Series s ->
          Mutex.lock s.s_mutex;
          s.s_len <- 0;
          s.s_dropped <- 0;
          Mutex.unlock s.s_mutex
      | Window w ->
          Mutex.lock w.w_mutex;
          Array.fill w.w_epochs 0 (Array.length w.w_epochs) min_int;
          Array.fill w.w_sums 0 (Array.length w.w_sums) 0;
          w.w_last <- 0.0;
          Mutex.unlock w.w_mutex)
    (all_metrics ())

(* Bucket [k]'s value range, for printing. *)
let bucket_bounds k = if k = 0 then (0, 0) else (1 lsl (k - 1), 1 lsl k)

let hist_nonempty_buckets h =
  let out = ref [] in
  for k = nbuckets - 1 downto 0 do
    let n = Atomic.get h.buckets.(k) in
    if n > 0 then out := (k, n) :: !out
  done;
  !out

let metric_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name
  | Series s -> s.s_name
  | Window w -> w.w_name

type any =
  | Any_counter of counter
  | Any_gauge of gauge
  | Any_histogram of histogram
  | Any_series of series
  | Any_window of window

let all () =
  List.map
    (fun m ->
      ( metric_name m,
        match m with
        | Counter c -> Any_counter c
        | Gauge g -> Any_gauge g
        | Histogram h -> Any_histogram h
        | Series s -> Any_series s
        | Window w -> Any_window w ))
    (all_metrics ())

let to_text_filtered keep =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# jmpax telemetry metrics (zero-valued metrics omitted)\n";
  List.iter
    (fun m ->
      if not (keep (metric_name m)) then ()
      else
      match m with
      | Counter c ->
          let v = Atomic.get c.c in
          if v <> 0 then Buffer.add_string buf (Printf.sprintf "counter %s = %d\n" c.c_name v)
      | Gauge g ->
          let v = Atomic.get g.g in
          if v <> 0 then Buffer.add_string buf (Printf.sprintf "gauge %s = %d\n" g.g_name v)
      | Histogram h ->
          if Atomic.get h.h_count > 0 then begin
            Buffer.add_string buf
              (Printf.sprintf "hist %s count=%d sum=%d max=%d" h.h_name
                 (Atomic.get h.h_count) (Atomic.get h.h_sum) (Atomic.get h.h_max));
            List.iter
              (fun (k, n) ->
                let lo, hi = bucket_bounds k in
                if k = 0 then Buffer.add_string buf (Printf.sprintf " [<=0]=%d" n)
                else Buffer.add_string buf (Printf.sprintf " [%d,%d)=%d" lo hi n))
              (hist_nonempty_buckets h);
            Buffer.add_char buf '\n'
          end
      | Series s ->
          if s.s_len > 0 then begin
            Buffer.add_string buf
              (Printf.sprintf "series %s (%d points%s) =" s.s_name s.s_len
                 (if s.s_dropped > 0 then Printf.sprintf ", %d dropped" s.s_dropped
                  else ""));
            (* The text view is for eyeballs; cap the dump so a
               saturated series doesn't produce a 4096-number line.
               [to_json] keeps every point. *)
            let vs = series_values s in
            let shown = 64 in
            List.iteri
              (fun i v ->
                if i < shown then Buffer.add_string buf (Printf.sprintf " %d" v))
              vs;
            if List.length vs > shown then
              Buffer.add_string buf
                (Printf.sprintf " ... (%d more)" (List.length vs - shown));
            Buffer.add_char buf '\n'
          end
      | Window w ->
          let now = window_last w in
          if now > 0.0 then
            Buffer.add_string buf
              (Printf.sprintf "window %s 1s=%.1f 10s=%.1f 60s=%.1f\n" w.w_name
                 (window_rate w ~now ~span:1.0)
                 (window_rate w ~now ~span:10.0)
                 (window_rate w ~now ~span:60.0)))
    (all_metrics ());
  Buffer.contents buf

let to_text () = to_text_filtered (fun _ -> true)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json () =
  let buf = Buffer.create 1024 in
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n  "
  in
  Buffer.add_string buf "{\n  ";
  List.iter
    (fun m ->
      match m with
      | Counter c ->
          if Atomic.get c.c <> 0 then begin
            sep ();
            Buffer.add_string buf
              (Printf.sprintf "\"%s\": {\"kind\": \"counter\", \"value\": %d}"
                 (json_escape c.c_name) (Atomic.get c.c))
          end
      | Gauge g ->
          if Atomic.get g.g <> 0 then begin
            sep ();
            Buffer.add_string buf
              (Printf.sprintf "\"%s\": {\"kind\": \"gauge\", \"value\": %d}"
                 (json_escape g.g_name) (Atomic.get g.g))
          end
      | Histogram h ->
          if Atomic.get h.h_count > 0 then begin
            sep ();
            Buffer.add_string buf
              (Printf.sprintf
                 "\"%s\": {\"kind\": \"histogram\", \"count\": %d, \"sum\": %d, \
                  \"max\": %d, \"buckets\": [%s]}"
                 (json_escape h.h_name) (Atomic.get h.h_count) (Atomic.get h.h_sum)
                 (Atomic.get h.h_max)
                 (String.concat ", "
                    (List.map
                       (fun (k, n) ->
                         let lo, hi = bucket_bounds k in
                         Printf.sprintf "[%d, %d, %d]" lo hi n)
                       (hist_nonempty_buckets h))))
          end
      | Series s ->
          if s.s_len > 0 then begin
            sep ();
            Buffer.add_string buf
              (Printf.sprintf
                 "\"%s\": {\"kind\": \"series\", \"dropped\": %d, \"values\": [%s]}"
                 (json_escape s.s_name) s.s_dropped
                 (String.concat ", " (List.map string_of_int (series_values s))))
          end
      | Window w ->
          let now = window_last w in
          if now > 0.0 then begin
            sep ();
            Buffer.add_string buf
              (Printf.sprintf
                 "\"%s\": {\"kind\": \"window\", \"rate_1s\": %.3f, \
                  \"rate_10s\": %.3f, \"rate_60s\": %.3f}"
                 (json_escape w.w_name)
                 (window_rate w ~now ~span:1.0)
                 (window_rate w ~now ~span:10.0)
                 (window_rate w ~now ~span:60.0))
          end)
    (all_metrics ());
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
