(* Prometheus text exposition (format version 0.0.4).

   A builder that groups samples into families keyed by metric name, so
   the rendered output always satisfies the format's structural rules:
   every family's "# TYPE" line precedes all of its samples, families
   are contiguous, histogram buckets are cumulative and end with the
   "+Inf" bucket equal to _count. *)

type sample = {
  s_suffix : string;  (* "", "_bucket", "_sum", "_count" *)
  s_labels : (string * string) list;
  s_value : float;
}

type family = {
  f_name : string;
  f_type : string;  (* "counter" | "gauge" | "histogram" *)
  f_help : string option;
  mutable f_samples : sample list;  (* reversed *)
}

type t = {
  mutable families : family list;  (* reversed insertion order *)
  index : (string, family) Hashtbl.t;
}

let create () = { families = []; index = Hashtbl.create 32 }

let family t ~name ~typ ~help =
  match Hashtbl.find_opt t.index name with
  | Some f ->
      if f.f_type <> typ then
        invalid_arg
          (Printf.sprintf "Expo: family %s is %s, not %s" name f.f_type typ);
      f
  | None ->
      let f = { f_name = name; f_type = typ; f_help = help; f_samples = [] } in
      Hashtbl.replace t.index name f;
      t.families <- f :: t.families;
      f

let add_sample f s = f.f_samples <- s :: f.f_samples

let counter t ?help ?(labels = []) name v =
  let f = family t ~name ~typ:"counter" ~help in
  add_sample f { s_suffix = ""; s_labels = labels; s_value = v }

let gauge t ?help ?(labels = []) name v =
  let f = family t ~name ~typ:"gauge" ~help in
  add_sample f { s_suffix = ""; s_labels = labels; s_value = v }

(* [buckets] are (upper-bound, cumulative-count) pairs in ascending
   bound order; the +Inf bucket is appended here from [count]. *)
let histogram t ?help ?(labels = []) name ~buckets ~sum ~count =
  let f = family t ~name ~typ:"histogram" ~help in
  List.iter
    (fun (le, c) ->
      add_sample f
        { s_suffix = "_bucket";
          s_labels = labels @ [ ("le", Printf.sprintf "%.12g" le) ];
          s_value = float_of_int c })
    buckets;
  add_sample f
    { s_suffix = "_bucket";
      s_labels = labels @ [ ("le", "+Inf") ];
      s_value = float_of_int count };
  add_sample f { s_suffix = "_sum"; s_labels = labels; s_value = sum };
  add_sample f
    { s_suffix = "_count"; s_labels = labels; s_value = float_of_int count }

(* {1 Rendering} *)

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let render_sample buf f s =
  Buffer.add_string buf f.f_name;
  Buffer.add_string buf s.s_suffix;
  (match s.s_labels with
  | [] -> ()
  | labels ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_label v);
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}');
  Buffer.add_char buf ' ';
  Buffer.add_string buf (fmt_value s.s_value);
  Buffer.add_char buf '\n'

let to_string t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      (match f.f_help with
      | Some h ->
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" f.f_name (escape_help h))
      | None -> ());
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" f.f_name f.f_type);
      List.iter (render_sample buf f) (List.rev f.f_samples))
    (List.rev t.families);
  Buffer.contents buf

(* {1 Mapping the metrics registry} *)

(* Every character outside [[a-zA-Z0-9_:]] becomes ['_']. *)
let mangle name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

(* Internal metric names carry their unit as a suffix; exposition
   prefers base units, so "_us" becomes "_seconds" with values scaled
   by 1e-6 (and "_ms" likewise by 1e-3). *)
let unit_of name =
  let ends s suf =
    let n = String.length s and m = String.length suf in
    n >= m && String.sub s (n - m) m = suf
  in
  if ends name "_us" then (String.sub name 0 (String.length name - 3) ^ "_seconds", 1e-6)
  else if ends name "_ms" then
    (String.sub name 0 (String.length name - 3) ^ "_seconds", 1e-3)
  else (name, 1.0)

let prom_name name =
  let base, scale = unit_of (mangle name) in
  ("jmpax_" ^ base, scale)

let ends_with s suf =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

let of_metrics ?(keep = fun _ -> true) ?(now = 0.0) t =
  List.iter
    (fun (name, m) ->
      if keep name then
        match m with
        | Metrics.Any_counter c ->
            let pname, scale = prom_name name in
            let pname = if ends_with pname "_total" then pname else pname ^ "_total" in
            counter t pname (float_of_int (Metrics.value c) *. scale)
        | Metrics.Any_gauge g ->
            let pname, scale = prom_name name in
            gauge t pname (float_of_int (Metrics.gauge_value g) *. scale)
        | Metrics.Any_histogram h ->
            if Metrics.hist_count h > 0 then begin
              let pname, scale = prom_name name in
              (* Log2 buckets rendered up to the highest nonempty one;
                 le is the bucket's (exclusive) upper bound, an
                 acceptable approximation for power-of-two edges. *)
              let top = ref 0 in
              for k = 0 to Metrics.nbuckets - 1 do
                if Metrics.hist_bucket h k > 0 then top := k
              done;
              let buckets = ref [] in
              let cum = ref 0 in
              for k = 0 to !top do
                cum := !cum + Metrics.hist_bucket h k;
                let le =
                  if k = 0 then 0.0
                  else float_of_int (snd (Metrics.bucket_bounds k))
                in
                buckets := (le *. scale, !cum) :: !buckets
              done;
              histogram t pname ~buckets:(List.rev !buckets)
                ~sum:(float_of_int (Metrics.hist_sum h) *. scale)
                ~count:(Metrics.hist_count h)
            end
        | Metrics.Any_series _ ->
            (* Ordered per-level series have no exposition mapping with
               bounded cardinality; they stay in the text/JSON dumps. *)
            ()
        | Metrics.Any_window w ->
            let pname, _ = prom_name name in
            let pname = pname ^ "_per_second" in
            List.iter
              (fun (label, span) ->
                gauge t pname
                  ~labels:[ ("window", label) ]
                  (Metrics.window_rate w ~now ~span))
              [ ("1s", 1.0); ("10s", 10.0); ("60s", 60.0) ])
    (Metrics.all ())
