(* Seeded input generation shared by the workloads.

   Every workload runs one program shape: [threads] threads, each looping
   [iters] times over

     sync (m{t mod 4}) { c = c + 1; }   a counter under one of 4 locks
     x{t} = i + 1;                      its own cell
     r = x{t+1};                        its neighbour's cell
     nop; ...                           [nops] internal events

   The four locks make the counter increments racy (lost updates are
   possible), so the race and atomicity engines have real findings, while
   [c <= x0 + ... + x{n-1} + n] still holds in every consistent cut: a
   cut holding thread t's write x{t} = k also holds t's first k counter
   writes, and the counter's value never exceeds the number of counter
   writes in the cut.  The internal events are thread-local steps: they
   cost the VM and the emitter, never the offline analyses. *)

let program_source ~threads ~iters ~nops =
  let b = Buffer.create 4096 in
  Buffer.add_string b "shared c = 0";
  for t = 0 to threads - 1 do
    Printf.bprintf b ", x%d = 0" t
  done;
  Buffer.add_string b ";\n";
  for t = 0 to threads - 1 do
    Printf.bprintf b
      "thread t%d {\n\
      \  local i = 0;\n\
      \  local r = 0;\n\
      \  while (i < %d) {\n\
      \    sync (m%d) { c = c + 1; }\n\
      \    x%d = i + 1;\n\
      \    r = x%d;\n\
      \    %s\n\
      \    i = i + 1;\n\
      \  }\n\
       }\n"
      t iters (t mod 4) t
      ((t + 1) mod threads)
      (String.concat " " (List.init nops (fun _ -> "nop;")))
  done;
  Buffer.contents b

let cell_vars threads = List.init threads (Printf.sprintf "x%d")

(* The clean invariant over the counter and every cell. *)
let invariant_source threads =
  Printf.sprintf "c <= %s + %d" (String.concat " + " (cell_vars threads)) threads

(* A spec over the counter alone: its relevant writes form a chain, so
   the lattice is a single run. *)
let counter_spec_source = "(c > 0) ==> once (c == 1)"

(* Independent, reproducible sub-seeds: the same (seed, purpose, index)
   always gives the same stream. *)
let derive seed purpose index = Hashtbl.hash (seed, purpose, index) land 0x3fffffff

(* {1 Recorded runs} *)

type recording = {
  program : Tml.Ast.program;
  plain : Tml.Bytecode.image;
  instrumented : Tml.Bytecode.image;
  relevant : Trace.Types.var list option;  (** [None]: all events *)
  script : Tml.Sched.script;
  run : Tml.Vm.run_result;
  exec : Trace.Exec.t;
}

let relevance = function
  | Some vars -> Mvc.Relevance.writes_of_vars vars
  | None -> Mvc.Relevance.all_events

let fuel = 100_000_000

(* One monitored run under a seeded random schedule, with its decisions
   recorded so layer probes can replay exactly this execution. *)
let record ~source ~relevant ~sched_seed =
  let program = Tml.Parser.parse_program source in
  let plain = Tml.Compile.compile program in
  let instrumented = Tml.Instrument.instrument plain in
  let sched, script = Tml.Sched.recording (Tml.Sched.random ~seed:sched_seed) in
  let run =
    Tml.Vm.run_image ~fuel ~relevance:(relevance relevant) ~sched instrumented
  in
  (match run.Tml.Vm.outcome with
  | Tml.Vm.Completed -> ()
  | o -> failwith (Format.asprintf "recording run did not complete: %a" Tml.Vm.pp_outcome o));
  let exec = Option.get run.Tml.Vm.exec in
  { program; plain; instrumented; relevant; script = script (); run; exec }

let header_of (r : recording) =
  let init =
    match r.relevant with
    | Some vars -> List.filter (fun (x, _) -> List.mem x vars) (Trace.Exec.init r.exec)
    | None -> Trace.Exec.init r.exec
  in
  { Jmpax.Wire.nthreads = Trace.Exec.nthreads r.exec; init }

(* {1 Files inside the checkout}

   Scratch files live under [_ledger/] in the working directory, never
   in the system temp directory; each run removes its own. *)

let scratch_root = "_ledger"

let make_run_dir name =
  (try Unix.mkdir scratch_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir =
    Filename.concat (Sys.getcwd ())
      (Filename.concat scratch_root (Printf.sprintf "%s.%d" name (Unix.getpid ())))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let remove_run_dir dir =
  remove_tree dir;
  (* Drop the shared parent too once the last run is gone. *)
  try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error _ -> ()

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
