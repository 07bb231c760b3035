(* The lock-counter program the benchmark runs: each of [threads] threads
   loops [iters] times over [sync (m{t%4}) { c = c + 1; }], a write of
   its own cell [x{t}], a read of its neighbour's cell and [nops]
   internal steps. *)
let source ~threads ~iters ~nops =
  let cells = List.init threads (Printf.sprintf "x%d = 0") in
  Printf.sprintf "shared c = 0, %s;\n%s" (String.concat ", " cells)
    (String.concat "\n"
       (List.init threads (fun t ->
            Printf.sprintf
              "thread t%d { local i = 0; local r = 0; while (i < %d) { sync (m%d) { c = c \
               + 1; } x%d = i + 1; r = x%d; %s i = i + 1; } }"
              t iters (t mod 4) t ((t + 1) mod threads)
              (String.concat " " (List.init nops (fun _ -> "nop;"))))))
