let parse = Parser.parse_program

(* {1 Paper examples} *)

let landing_bounded_src =
  {|
  // Fig. 1, environment reduced to the single radio-off write.
  shared landing = 0, approved = 0, radio = 1;

  thread control {
    // askLandingApproval()
    if (radio == 0) { approved = 0; } else { approved = 1; }
    if (approved == 1) {
      landing = 1;   // "Landing started"
    }
  }

  thread environment {
    radio = 0;       // checkRadio() turning the signal off
  }
|}

let landing_bounded = parse landing_bounded_src

let landing_observed =
  (* control: read radio, write approved, read approved, write landing;
     then environment: write radio. *)
  Sched.[ Pick 0; Pick 0; Pick 0; Pick 0; Pick 1 ]

let landing_full ~rounds =
  if rounds < 1 then invalid_arg "Programs.landing_full: rounds must be >= 1";
  parse
    (Printf.sprintf
       {|
  shared landing = 0, approved = 0, radio = 1;

  thread control {
    if (radio == 0) { approved = 0; } else { approved = 1; }
    if (approved == 1) {
      nop;
      landing = 1;
    }
  }

  thread environment {
    local k = 0;
    while (k < %d) {
      if (radio == 1) { radio = choose(0, 1); }
      k = k + 1;
    }
  }
|}
       rounds)

let xyz_src =
  {|
  // Example 2: one thread runs x++; y = x + 1, the other z = x + 1; x++.
  shared x = -1, y = 0, z = 0;

  thread t1 {
    x = x + 1;
    y = x + 1;
  }

  thread t2 {
    z = x + 1;
    x = x + 1;
  }
|}

let xyz = parse xyz_src

let xyz_observed =
  (* t1: read x, write x=0 | t2: read x, write z=1 | t1: read x |
     t2: read x, write x=1 | t1: write y=1 *)
  Sched.[ Pick 0; Pick 0; Pick 1; Pick 1; Pick 0; Pick 1; Pick 1; Pick 0 ]

(* {1 Further workloads} *)

let counter_body ~locked ~increments =
  let guard body = if locked then Printf.sprintf "sync (m) { %s }" body else body in
  Printf.sprintf
    {|
  shared counter = 0;

  thread inc1 {
    local i = 0;
    while (i < %d) {
      %s
      i = i + 1;
    }
  }

  thread inc2 {
    local i = 0;
    while (i < %d) {
      %s
      i = i + 1;
    }
  }
|}
    increments
    (guard "counter = counter + 1;")
    increments
    (guard "counter = counter + 1;")

let racy_counter ~increments =
  if increments < 1 then invalid_arg "Programs.racy_counter: increments must be >= 1";
  parse (counter_body ~locked:false ~increments)

let locked_counter ~increments =
  if increments < 1 then invalid_arg "Programs.locked_counter: increments must be >= 1";
  parse (counter_body ~locked:true ~increments)

let producer_consumer ~items =
  if items < 1 then invalid_arg "Programs.producer_consumer: items must be >= 1";
  parse
    (Printf.sprintf
       {|
  shared buf = 0, full = 0;

  thread producer {
    local i = 0;
    while (i < %d) {
      while (full == 1) { wait cv; }
      buf = i + 100;
      full = 1;
      notify cv;
      i = i + 1;
    }
  }

  thread consumer {
    local j = 0;
    while (j < %d) {
      while (full == 0) { wait cv; }
      buf = 0;
      full = 0;
      notify cv;
      j = j + 1;
    }
  }
|}
       items items)

let bank_transfer_src =
  {|
  shared acct_a = 100, acct_b = 100;

  thread debit_a {
    lock la;
    lock lb;
    acct_a = acct_a - 10;
    acct_b = acct_b + 10;
    unlock lb;
    unlock la;
  }

  thread debit_b {
    lock lb;
    lock la;
    acct_b = acct_b - 20;
    acct_a = acct_a + 20;
    unlock la;
    unlock lb;
  }
|}

let bank_transfer = parse bank_transfer_src

let bank_transfer_ordered_src =
  {|
  shared acct_a = 100, acct_b = 100;

  thread debit_a {
    lock la;
    lock lb;
    acct_a = acct_a - 10;
    acct_b = acct_b + 10;
    unlock lb;
    unlock la;
  }

  thread debit_b {
    lock la;
    lock lb;
    acct_b = acct_b - 20;
    acct_a = acct_a + 20;
    unlock lb;
    unlock la;
  }
|}

let bank_transfer_ordered = parse bank_transfer_ordered_src

let peterson_src =
  {|
  shared flag0 = 0, flag1 = 0, turn = 0, counter = 0;

  thread p0 {
    flag0 = 1;
    turn = 1;
    while (flag1 == 1 && turn == 1) { nop; }
    counter = counter + 1;   // critical section
    flag0 = 0;
  }

  thread p1 {
    flag1 = 1;
    turn = 0;
    while (flag0 == 1 && turn == 0) { nop; }
    counter = counter + 1;   // critical section
    flag1 = 0;
  }
|}

let peterson = parse peterson_src

let dekker_sketch_src =
  {|
  // Naive flag-based mutual exclusion: both threads can pass the test
  // before either write is seen, so the increments can race.
  shared flag0 = 0, flag1 = 0, counter = 0;

  thread a {
    flag0 = 1;
    if (flag1 == 0) { counter = counter + 1; }
    flag0 = 0;
  }

  thread b {
    flag1 = 1;
    if (flag0 == 0) { counter = counter + 1; }
    flag1 = 0;
  }
|}

let dekker_sketch = parse dekker_sketch_src

let fork_join ~workers =
  if workers < 1 then invalid_arg "Programs.fork_join: workers must be >= 1";
  let buf = Buffer.create 256 in
  Buffer.add_string buf "shared total = 0";
  for i = 0 to workers - 1 do
    Buffer.add_string buf (Printf.sprintf ", in%d = %d, out%d = 0" i (i + 1) i)
  done;
  Buffer.add_string buf ";\n";
  Buffer.add_string buf "thread master {\n";
  for i = 0 to workers - 1 do
    Buffer.add_string buf (Printf.sprintf "  spawn worker%d;\n" i)
  done;
  for i = 0 to workers - 1 do
    Buffer.add_string buf (Printf.sprintf "  join worker%d;\n" i)
  done;
  for i = 0 to workers - 1 do
    Buffer.add_string buf (Printf.sprintf "  total = total + out%d;\n" i)
  done;
  Buffer.add_string buf "}\n";
  for i = 0 to workers - 1 do
    Buffer.add_string buf
      (Printf.sprintf "thread worker%d { out%d = in%d * in%d; }\n" i i i i)
  done;
  parse (Buffer.contents buf)

let spawn_unsynchronized_src =
  {|
  // The spawn orders the worker AFTER the master's past, but nothing
  // orders the two writes below: a predicted race.
  shared cell = 0;

  thread master {
    cell = 1;
    spawn worker;
    cell = 2;
  }

  thread worker {
    cell = 3;
  }
|}

let spawn_unsynchronized = parse spawn_unsynchronized_src

let pipeline ~stages =
  if stages < 2 then invalid_arg "Programs.pipeline: stages must be >= 2";
  let buf = Buffer.create 256 in
  let cell i = Printf.sprintf "c%d" i in
  Buffer.add_string buf "shared ";
  for i = 1 to stages do
    if i > 1 then Buffer.add_string buf ", ";
    Buffer.add_string buf (Printf.sprintf "%s = 0" (cell i))
  done;
  Buffer.add_string buf ";\n";
  Buffer.add_string buf (Printf.sprintf "thread source { %s = 1; }\n" (cell 1));
  for i = 1 to stages - 1 do
    Buffer.add_string buf
      (Printf.sprintf "thread stage%d { while (%s == 0) { nop; } %s = %s + 1; }\n" i
         (cell i) (cell (i + 1)) (cell i))
  done;
  parse (Buffer.contents buf)

let independent ~threads ~writes =
  if threads < 1 then invalid_arg "Programs.independent: threads must be >= 1";
  if writes < 1 then invalid_arg "Programs.independent: writes must be >= 1";
  let buf = Buffer.create 256 in
  Buffer.add_string buf "shared ";
  for i = 0 to threads - 1 do
    if i > 0 then Buffer.add_string buf ", ";
    Buffer.add_string buf (Printf.sprintf "v%d = 0" i)
  done;
  Buffer.add_string buf ";\n";
  for i = 0 to threads - 1 do
    Buffer.add_string buf (Printf.sprintf "thread w%d {\n" i);
    for j = 1 to writes do
      Buffer.add_string buf (Printf.sprintf "  v%d = %d;\n" i j)
    done;
    Buffer.add_string buf "}\n"
  done;
  parse (Buffer.contents buf)

let named_sources =
  [ ("landing", landing_bounded_src);
    ("xyz", xyz_src);
    ("bank-transfer", bank_transfer_src);
    ("bank-transfer-ordered", bank_transfer_ordered_src);
    ("peterson", peterson_src);
    ("dekker-sketch", dekker_sketch_src);
    ("spawn-unsynchronized", spawn_unsynchronized_src) ]

let all_named () = List.map (fun (name, src) -> (name, parse src)) named_sources
let source_of_name name = List.assoc_opt name named_sources
