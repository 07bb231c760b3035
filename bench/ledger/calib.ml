(* Machine-speed calibration.

   The ledger runs on shared machines whose speed drifts by tens of
   percent from one minute to the next, far more than any change it is
   meant to judge.  A fixed kernel that uses no jmpax code is timed
   between the requests of a run, in the process that analyses them;
   every time the ledger reports is divided by [factor] — the kernel's
   median time over its time on the reference machine — and every rate
   multiplied by it.  A change to jmpax moves the requests and not the
   kernel, so it shows in full; a slower machine moves both, so it
   cancels.

   The kernel mixes three kinds of work, because no single one tracked
   every workload: a random read-modify-write walk over 2 MiB (memory
   latency), short-lived small blocks (the minor heap and its
   collections), and hashing into a table the kernel keeps (scattered
   reads and writes).  It touches none of the program's data; what it
   allocates dies young or lives in its own table. *)

(* The kernel's time on the machine baseline.json was taken on, a
   2-vCPU VM. *)
let nominal_ms = 4.0

let walk_size = 1 lsl 18
let walk = lazy (Array.make walk_size 1)
let table : (int, int) Hashtbl.t Lazy.t = lazy (Hashtbl.create 8192)

let walk_part () =
  let buf = Lazy.force walk in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 700_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land (walk_size - 1) in
    let v = Array.unsafe_get buf i in
    Array.unsafe_set buf i (v + !acc);
    acc := (!acc lxor v) + 1
  done;
  !acc

let alloc_part () =
  let acc = ref 0 in
  for _ = 1 to 400 do
    let l = List.init 100 (fun i -> (i, i * 2)) in
    let m = List.rev_map (fun (a, b) -> (b, a + 1)) l in
    acc := !acc + List.fold_left (fun s (a, b) -> s + a - b) 0 m
  done;
  !acc

let hash_part () =
  let h = Lazy.force table in
  Hashtbl.clear h;
  for i = 1 to 8_000 do
    Hashtbl.replace h ((i * 7919) land 0x1fff) i
  done;
  let s = ref 0 in
  for i = 1 to 8_000 do
    match Hashtbl.find_opt h (i land 0x1fff) with Some v -> s := !s + v | None -> ()
  done;
  !s

(* One kernel run, in milliseconds. *)
let kernel () =
  let t0 = Unix.gettimeofday () in
  let r = walk_part () + alloc_part () + hash_part () in
  ignore (Sys.opaque_identity r);
  (Unix.gettimeofday () -. t0) *. 1e3

let samples = ref []

(* Kernel time owed, in seconds: [tick] keeps the kernel at [duty] of
   the time between requests' starts, so a run takes hundreds of
   samples whatever its request length. *)
let duty = 0.1
let owed = ref 0.0
let last = ref nan

let reset () =
  samples := [];
  owed := 0.0;
  last := nan

let record ms = samples := ms :: !samples

let sample ?(n = 3) () =
  for _ = 1 to n do
    record (kernel ())
  done

(* Between requests. *)
let tick () =
  let now = Unix.gettimeofday () in
  if not (Float.is_nan !last) then owed := !owed +. (duty *. (now -. !last));
  while !owed > 0.0 do
    let ms = kernel () in
    record ms;
    owed := !owed -. (ms /. 1e3)
  done;
  last := Unix.gettimeofday ()

let median_ms () = Stats.median !samples
let factor () = median_ms () /. nominal_ms
