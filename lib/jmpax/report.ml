let lattice_figure comp =
  let lattice = Observer.Lattice.build comp in
  Format.asprintf "%a" Observer.Lattice.pp lattice

let example_report ~spec ~program ~script =
  let config =
    Config.default () |> Config.with_sched (Tml.Sched.of_script script)
  in
  let output = Pipeline.check ~config ~spec program in
  let vars = output.Pipeline.relevant_vars in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "%a@." Pipeline.pp_output output;
  Format.fprintf ppf "@.observed messages:@.";
  List.iteri
    (fun i m -> Format.fprintf ppf "  %d: %a@." (i + 1) Trace.Message.pp m)
    output.Pipeline.run.Tml.Vm.messages;
  let lattice = Observer.Lattice.build output.Pipeline.computation in
  Format.fprintf ppf "@.%a@." Observer.Lattice.pp lattice;
  let ce = Predict.Counterexample.check ~spec output.Pipeline.computation in
  Format.fprintf ppf "@.%a@." Predict.Counterexample.pp_report ce;
  List.iter
    (fun c ->
      Format.fprintf ppf "%a@." (Predict.Counterexample.pp_counterexample ~vars) c)
    ce.Predict.Counterexample.violating;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let stream_summary (o : Stream.outcome) =
  let s = o.Stream.s_stats in
  let buf = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if o.Stream.s_lattice then
    p "stream: %d frames (%d messages, %d end-of-stream), final level %d\n"
      s.Stream.frames s.Stream.messages s.Stream.ends o.Stream.s_level
  else
    p "stream: %d frames (%d messages, %d end-of-stream)\n" s.Stream.frames
      s.Stream.messages s.Stream.ends;
  if s.Stream.skipped_frames > 0 || s.Stream.skipped_bytes > 0 then
    p "recovered: %d frames skipped, %d bytes dropped, %d resyncs%s\n"
      s.Stream.skipped_frames s.Stream.skipped_bytes s.Stream.resyncs
      (if s.Stream.quarantined_bytes > 0 then
         Printf.sprintf " (%d bytes quarantined)" s.Stream.quarantined_bytes
       else "");
  (match s.Stream.incomplete with
  | Some (tid, next) ->
      p "incomplete: thread %d never delivered message %d; verdict covers the received prefix\n"
        tid next
  | None -> ());
  if s.Stream.peak_buffered > 0 then
    p "peak out-of-order buffer: %d messages\n" s.Stream.peak_buffered;
  if s.Stream.checkpoints > 0 then
    p "checkpoints written: %d\n" s.Stream.checkpoints;
  (* The lattice line reports the lattice verdict alone, matching
     [Pipeline.pp_output]; [s_violated] also covers the other engines. *)
  List.iter (p "%s\n")
    (Driver.verdict_lines ~engines:o.Stream.s_engines ~degraded:o.Stream.s_degraded
       ~lattice:(if o.Stream.s_lattice then Some (o.Stream.s_violations <> []) else None));
  Buffer.contents buf

let detection_table ~spec ~program ~seeds =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "seed | observed-run (JPaX) | predictive (JMPaX)@.";
  Format.fprintf ppf "-----+---------------------+-------------------@.";
  let jpax_hits = ref 0 and jmpax_hits = ref 0 in
  List.iter
    (fun seed ->
      let config = Config.default () |> Config.with_seed seed in
      let output = Pipeline.check ~config ~spec program in
      let jpax = not output.Pipeline.observed_ok in
      let jmpax = Pipeline.predicted_violation output in
      if jpax then incr jpax_hits;
      if jmpax then incr jmpax_hits;
      Format.fprintf ppf "%4d | %19s | %s@." seed
        (if jpax then "violation" else "missed")
        (if jmpax then "violation" else "missed"))
    seeds;
  let n = List.length seeds in
  Format.fprintf ppf "detection rate: JPaX %d/%d, JMPaX %d/%d@." !jpax_hits n !jmpax_hits n;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
