(* Tests for the frontier engine: the packed interned-cut table
   (differentially against a plain (int list, int) Hashtbl), the level
   step, checked against the closed form of a grid lattice, and the
   two-level sweep against the allocate-per-level expansion it
   replaced, level by level. *)

module Cutset = Observer.Frontier.Cutset

(* {1 Cutset} *)

let test_cutset_basics () =
  let t = Cutset.create ~width:3 () in
  Alcotest.(check int) "empty" 0 (Cutset.count t);
  let a = Cutset.intern t [| 0; 0; 0 |] in
  let b = Cutset.intern t [| 1; 0; 2 |] in
  Alcotest.(check int) "first id" 0 a;
  Alcotest.(check int) "second id" 1 b;
  Alcotest.(check int) "re-intern dedups" a (Cutset.intern t [| 0; 0; 0 |]);
  Alcotest.(check int) "count" 2 (Cutset.count t);
  Alcotest.(check (option int)) "find present" (Some b) (Cutset.find t [| 1; 0; 2 |]);
  Alcotest.(check (option int)) "find absent" None (Cutset.find t [| 9; 9; 9 |]);
  Alcotest.(check (array int)) "to_array roundtrip" [| 1; 0; 2 |] (Cutset.to_array t b);
  Alcotest.(check int) "get" 2 (Cutset.get t b 2);
  let buf = Array.make 3 (-1) in
  Cutset.blit t a buf;
  Alcotest.(check (array int)) "blit" [| 0; 0; 0 |] buf;
  (match Cutset.intern t [| 1; 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong width accepted");
  Alcotest.(check bool) "compare_ids orders lexicographically" true
    (Cutset.compare_ids t a b < 0)

let test_cutset_succ_and_from () =
  let src = Cutset.create ~width:2 () in
  let s = Cutset.intern src [| 3; 1 |] in
  let dst = Cutset.create ~width:2 () in
  let d = Cutset.intern_succ dst ~src ~src_id:s ~tid:1 in
  Alcotest.(check (array int)) "successor bumps tid" [| 3; 2 |] (Cutset.to_array dst d);
  Alcotest.(check int) "succ dedups" d (Cutset.intern_succ dst ~src ~src_id:s ~tid:1);
  Alcotest.(check int) "source untouched" 1 (Cutset.count src);
  Alcotest.(check (array int)) "source cut unchanged" [| 3; 1 |] (Cutset.to_array src s)

let test_cutset_growth () =
  (* Push the table through several arena and slot growths. *)
  let t = Cutset.create ~capacity:2 ~width:4 () in
  let n = 5000 in
  for i = 0 to n - 1 do
    let id = Cutset.intern t [| i land 7; i lsr 3; i * 17; -i |] in
    Alcotest.(check int) "dense ids in intern order" i id
  done;
  Alcotest.(check int) "all distinct" n (Cutset.count t);
  for i = 0 to n - 1 do
    Alcotest.(check (option int)) "still findable" (Some i)
      (Cutset.find t [| i land 7; i lsr 3; i * 17; -i |])
  done;
  Alcotest.(check bool) "mem_words sane" true (Cutset.mem_words t > 4 * n)

(* [clear] empties the table in place: ids restart at 0, nothing old is
   found, and the cuts interned afterwards behave as in a fresh table. *)
let test_cutset_clear () =
  let t = Cutset.create ~capacity:2 ~width:2 () in
  for round = 0 to 3 do
    let n = [| 300; 3; 0; 40 |].(round) in
    for i = 0 to n - 1 do
      Alcotest.(check int) "fresh ids" i (Cutset.intern t [| round; i |])
    done;
    Alcotest.(check int) "count" n (Cutset.count t);
    for i = 0 to n - 1 do
      Alcotest.(check (option int)) "findable" (Some i) (Cutset.find t [| round; i |])
    done;
    Cutset.clear t;
    Alcotest.(check int) "empty after clear" 0 (Cutset.count t);
    Alcotest.(check (option int)) "old cut gone" None (Cutset.find t [| round; 0 |])
  done

let gen_cuts =
  QCheck.Gen.(list_size (int_range 1 200) (array_size (return 3) (int_bound 5)))

let arb_cuts =
  QCheck.make
    ~print:(fun cuts ->
      String.concat ";"
        (List.map
           (fun c ->
             Printf.sprintf "(%s)"
               (String.concat "," (List.map string_of_int (Array.to_list c))))
           cuts))
    gen_cuts

(* The packed table must agree, id for id, with the seed's list-keyed
   Hashtbl under the same first-seen numbering. *)
let qcheck_cutset_vs_hashtbl =
  QCheck.Test.make ~name:"cutset == (int list, int) Hashtbl reference" ~count:200
    arb_cuts (fun cuts ->
      let t = Cutset.create ~width:3 () in
      let reference : (int list, int) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (fun cut ->
          let key = Array.to_list cut in
          let expected =
            match Hashtbl.find_opt reference key with
            | Some id -> id
            | None ->
                let id = Hashtbl.length reference in
                Hashtbl.replace reference key id;
                id
          in
          Cutset.intern t cut = expected
          && Cutset.find t cut = Some expected
          && Array.to_list (Cutset.to_array t expected) = key)
        cuts
      && Cutset.count t = Hashtbl.length reference)

(* {1 Level expansion on a synthetic lattice} *)

(* Payload: sorted list of source tags; merge is list merge, so every
   cut ends up carrying the tags of all its predecessors. *)
module E = Observer.Frontier.Make (struct
  type t = int list

  let dummy = []
  let merge = List.merge compare
end)

(* A synthetic grid walk: from cut c, each component below [limit] can
   step; the move is tagged with the flattened source cut. *)
let grid_enabled ~limit cut tids =
  let k = ref 0 in
  Array.iteri
    (fun tid v ->
      if v < limit then begin
        tids.(!k) <- tid;
        incr k
      end)
    cut;
  !k

let grid_tag ~limit cut = Array.fold_left (fun acc v -> (acc * (limit + 1)) + v) 0 cut

let grid_advance ~limit =
  E.advance ~enabled:(grid_enabled ~limit)
    ~step:(fun _ cut _ -> [ grid_tag ~limit cut ])
    ~join:(fun q _ cut _ -> List.merge compare q [ grid_tag ~limit cut ])

let level_list f =
  List.rev (E.fold (fun acc cut payload -> (Array.to_list cut, payload) :: acc) [] f)

let run_grid ~width ~limit =
  let frontier = E.singleton ~width (Array.make width 0) [ 0 ] in
  let trace = ref [ level_list frontier ] in
  while grid_advance ~limit frontier do
    trace := level_list frontier :: !trace
  done;
  List.rev !trace

(* The (limit+1)^width grid, level by level: level [l] holds exactly the
   cuts with components in [0, limit] summing to [l], in lexicographic
   order, and each carries the tags of its in-grid predecessors. *)
let test_engine_grid_levels () =
  let width = 3 and limit = 2 in
  let rec cuts w =
    if w = 0 then [ [] ]
    else
      List.concat_map
        (fun v -> List.map (fun c -> v :: c) (cuts (w - 1)))
        (List.init (limit + 1) Fun.id)
  in
  let tag cut = List.fold_left (fun acc v -> (acc * (limit + 1)) + v) 0 cut in
  let preds cut =
    List.concat
      (List.mapi
         (fun i v ->
           if v = 0 then [] else [ tag (List.mapi (fun j x -> if j = i then x - 1 else x) cut) ])
         cut)
  in
  let expected =
    List.init ((width * limit) + 1) (fun l ->
        List.filter (fun c -> List.fold_left ( + ) 0 c = l) (cuts width)
        |> List.sort compare
        |> List.map (fun c -> (c, if l = 0 then [ 0 ] else List.sort compare (preds c))))
  in
  Alcotest.(check (list int)) "level sizes" [ 1; 3; 6; 7; 6; 3; 1 ]
    (List.map List.length (run_grid ~width ~limit));
  Alcotest.(check bool) "cuts and merged payloads" true
    (run_grid ~width ~limit = expected)

let test_engine_canonical_order_and_min () =
  let f = E.singleton ~width:2 [| 0; 0 |] [ 0 ] in
  Alcotest.(check bool) "advanced" true (grid_advance ~limit:3 f);
  (* level 1 of the 2-d grid: (0,1) then (1,0) in lexicographic order *)
  let cuts = E.fold (fun acc cut _ -> Array.to_list cut :: acc) [] f |> List.rev in
  Alcotest.(check bool) "lexicographic iteration" true
    (cuts = [ [ 0; 1 ]; [ 1; 0 ] ]);
  let floor = Array.make 2 (-1) in
  E.min_components_into f floor;
  Alcotest.(check (array int)) "min_components" [| 0; 0 |] floor;
  Alcotest.(check int) "size" 2 (E.size f);
  Alcotest.(check bool) "find hits" true (E.find f [| 1; 0 |] <> None);
  Alcotest.(check bool) "find misses" true (E.find f [| 1; 1 |] = None)

(* {1 The two-level sweep against the allocate-per-level model}

   [Ref] is the level step as it was before the sweep kept two buffers:
   every level gets a fresh cut table, payload array and order array,
   and the old level is left untouched.  The sweep must reproduce it
   level by level: the same cuts in the same canonical order, the same
   payloads (so [step] and [join] see the same calls in the same
   order), the same minimum components, and the same end. *)

module Ref = struct
  type 'a level = { cuts : Cutset.t; order : int array; payloads : 'a array }

  let singleton ~width cut p =
    let cuts = Cutset.create ~capacity:4 ~width () in
    let id = Cutset.intern cuts cut in
    { cuts; order = [| id |]; payloads = [| p |] }

  let expand ~enabled ~step ~join f =
    let w = Cutset.width f.cuts in
    let cuts = Cutset.create ~capacity:(max 4 (2 * Array.length f.order)) ~width:w () in
    let data = ref [||] and len = ref 0 in
    let push x =
      if !len = Array.length !data then begin
        let d = Array.make (max 8 (2 * !len)) x in
        Array.blit !data 0 d 0 !len;
        data := d
      end;
      !data.(!len) <- x;
      incr len
    in
    let cutbuf = Array.make w 0 and tids = Array.make w 0 in
    Array.iter
      (fun id ->
        Cutset.blit f.cuts id cutbuf;
        let p = f.payloads.(id) in
        for k = 0 to enabled cutbuf tids - 1 do
          let tid = tids.(k) in
          let nid = Cutset.intern_succ cuts ~src:f.cuts ~src_id:id ~tid in
          if nid = !len then push (step p cutbuf tid)
          else !data.(nid) <- join !data.(nid) p cutbuf tid
        done)
      f.order;
    let order = Array.init (Cutset.count cuts) Fun.id in
    Array.sort (Cutset.compare_ids cuts) order;
    { cuts; order; payloads = Array.sub !data 0 !len }

  let to_list f =
    Array.to_list
      (Array.map (fun id -> (Array.to_list (Cutset.to_array f.cuts id), f.payloads.(id))) f.order)

  let min_components f =
    let w = Cutset.width f.cuts in
    Array.init w (fun i ->
        Array.fold_left (fun m id -> min m (Cutset.get f.cuts id i)) max_int f.order)
end

(* A pruned grid: thread [i] may step while below its limit, unless a
   hash of (seed, cut, thread) prunes the move.  Pruning makes levels
   grow, shrink and grow again before the sweep ends empty, and makes
   paths meet at a cut in varying numbers.  The payload is a trace of
   the calls that built it, so any change in the order of [step] and
   [join] calls shows. *)
let pruned_enabled ~seed ~limits cut tids =
  let k = ref 0 in
  Array.iteri
    (fun i v ->
      if v < limits.(i) && Hashtbl.hash (seed, Array.to_list cut, i) mod 4 <> 0 then begin
        tids.(!k) <- i;
        incr k
      end)
    cut;
  !k

let take n l = List.filteri (fun i _ -> i < n) l
let call_step p cut tid = tid :: Array.fold_left (fun acc v -> (acc * 7) + v) 0 cut :: take 4 p
let call_join q p cut tid = take 12 (q @ (-1 :: call_step p cut tid))

let gen_sweep =
  QCheck.Gen.(
    int_range 1 4 >>= fun width ->
    array_size (return width) (int_range 0 5) >>= fun limits ->
    int_bound 1_000_000 >>= fun seed -> return (width, limits, seed))

let qcheck_sweep_vs_reference =
  QCheck.Test.make ~name:"two-level sweep == allocate-per-level expand, level by level"
    ~count:300
    (QCheck.make
       ~print:(fun (w, limits, seed) ->
         Printf.sprintf "width %d, limits %s, seed %d" w
           (String.concat "," (Array.to_list (Array.map string_of_int limits)))
           seed)
       gen_sweep)
    (fun (width, limits, seed) ->
      let enabled = pruned_enabled ~seed ~limits in
      let bottom = Array.make width 0 in
      let sweep = E.singleton ~width bottom [ 0 ] in
      let model = ref (Ref.singleton ~width bottom [ 0 ]) in
      let floor = Array.make width (-1) in
      let level = ref 0 in
      let same () =
        E.min_components_into sweep floor;
        if level_list sweep <> Ref.to_list !model then
          QCheck.Test.fail_reportf "level %d: cuts or payloads differ" !level;
        if E.size sweep <> Array.length !model.Ref.order then
          QCheck.Test.fail_reportf "level %d: size" !level;
        if floor <> Ref.min_components !model then
          QCheck.Test.fail_reportf "level %d: min_components" !level;
        List.iter
          (fun (cut, p) ->
            if E.find sweep (Array.of_list cut) <> Some p then
              QCheck.Test.fail_reportf "level %d: find" !level)
          (Ref.to_list !model)
      in
      same ();
      let running = ref true in
      while !running do
        let next = Ref.expand ~enabled ~step:call_step ~join:call_join !model in
        let advanced = E.advance ~enabled ~step:call_step ~join:call_join sweep in
        if advanced <> (Array.length next.Ref.order > 0) then
          QCheck.Test.fail_reportf "level %d: advance returned %b" !level advanced;
        (* A finished sweep still holds its last level. *)
        if advanced then begin
          model := next;
          incr level
        end
        else running := false;
        same ()
      done;
      true)

(* One sweep whose widths go 4, 10, 7, ..., 1 and round again, so the
   spare buffer is often much larger than the level it holds. *)
let test_sweep_narrow_after_wide () =
  let width = 4 in
  let enabled cut tids =
    (* Two levels on which every thread steps, then four on which only
       the lowest-numbered thread with the smallest component does,
       which brings every cut of a level to the one balanced cut. *)
    let sum = Array.fold_left ( + ) 0 cut in
    if sum >= 32 then 0
    else if sum mod 8 < 2 then begin
      for i = 0 to width - 1 do
        tids.(i) <- i
      done;
      width
    end
    else begin
      let low = ref 0 in
      Array.iteri (fun i v -> if v < cut.(!low) then low := i) cut;
      tids.(0) <- !low;
      1
    end
  in
  let sweep = E.singleton ~width (Array.make width 0) [ 0 ] in
  let model = ref (Ref.singleton ~width (Array.make width 0) [ 0 ]) in
  let widths = ref [] in
  while E.advance ~enabled ~step:call_step ~join:call_join sweep do
    model := Ref.expand ~enabled ~step:call_step ~join:call_join !model;
    widths := E.size sweep :: !widths;
    Alcotest.(check bool) "level = model" true (level_list sweep = Ref.to_list !model)
  done;
  let widths = List.rev !widths in
  Alcotest.(check (list int)) "widths grow and shrink"
    (List.concat (List.init 4 (fun _ -> [ 4; 10; 7; 5; 4; 3; 2; 1 ])))
    widths

(* The 6^4 grid widens to 146 cuts and narrows to one, and a fifth
   thread then steps alone for eight levels.  The sweep must match the
   model on every level, and once the levels are narrow it must have
   given the wide levels' storage back: both buffers are rebuilt small
   when the frontier narrows, so they hold a small fraction of the
   peak. *)
let test_sweep_gives_storage_back () =
  let width = 5 and limit = 5 in
  let enabled cut tids =
    if cut.(0) = limit && cut.(1) = limit && cut.(2) = limit && cut.(3) = limit then
      if cut.(4) < 8 then begin
        tids.(0) <- 4;
        1
      end
      else 0
    else grid_enabled ~limit (Array.sub cut 0 4) tids
  in
  let bottom = Array.make width 0 in
  let sweep = E.singleton ~width bottom [ 0 ] in
  let model = ref (Ref.singleton ~width bottom [ 0 ]) in
  let peak = ref (E.mem_words sweep) and widest = ref 1 in
  while E.advance ~enabled ~step:call_step ~join:call_join sweep do
    model := Ref.expand ~enabled ~step:call_step ~join:call_join !model;
    peak := max !peak (E.mem_words sweep);
    widest := max !widest (E.size sweep);
    Alcotest.(check bool) "level = model" true (level_list sweep = Ref.to_list !model)
  done;
  Alcotest.(check int) "widest level" 146 !widest;
  Alcotest.(check (list int)) "last level" [ limit; limit; limit; limit; 8 ]
    (List.concat_map fst (level_list sweep));
  let final = E.mem_words sweep in
  if 10 * final > !peak then
    Alcotest.failf "narrow sweep holds %d words, peak %d" final !peak

let () =
  Alcotest.run "frontier"
    [ ( "cutset",
        [ Alcotest.test_case "basics" `Quick test_cutset_basics;
          Alcotest.test_case "succ and from" `Quick test_cutset_succ_and_from;
          Alcotest.test_case "growth" `Quick test_cutset_growth;
          Alcotest.test_case "clear" `Quick test_cutset_clear;
          QCheck_alcotest.to_alcotest qcheck_cutset_vs_hashtbl ] );
      ( "engine",
        [ Alcotest.test_case "grid levels" `Quick test_engine_grid_levels;
          Alcotest.test_case "canonical order + min" `Quick
            test_engine_canonical_order_and_min;
          Alcotest.test_case "narrow after wide" `Quick test_sweep_narrow_after_wide;
          Alcotest.test_case "storage given back" `Quick test_sweep_gives_storage_back;
          QCheck_alcotest.to_alcotest qcheck_sweep_vs_reference ] ) ]
