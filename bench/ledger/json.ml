(* A minimal JSON value, printer and parser: enough for BENCHMARK.json,
   the result rows the ledger writes with --out, and the committed
   baseline.  No dependency beyond the standard library. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* Shortest decimal that reads back as the same float, so a measured
   value keeps all its digits without printing 17 of them by habit. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let short = Printf.sprintf "%.15g" x in
    if float_of_string short = x then short else Printf.sprintf "%.17g" x

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x ->
      if Float.is_finite x then number x
      else invalid_arg "Json.to_string: non-finite number"
  | Str s -> escape s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) l)
      ^ "}"

(* One array element or object member per line, for committed files. *)
let rec pretty ?(indent = 0) v =
  let pad n = String.make n ' ' in
  let block opening closing items =
    if items = [] then opening ^ closing
    else
      opening ^ "\n"
      ^ String.concat ",\n" (List.map (fun item -> pad (indent + 2) ^ item) items)
      ^ "\n" ^ pad indent ^ closing
  in
  match v with
  | Arr l when List.exists (function Arr _ | Obj _ -> true | _ -> false) l ->
      block "[" "]" (List.map (pretty ~indent:(indent + 2)) l)
  | Obj l when List.exists (fun (_, x) -> match x with Arr (_ :: _) | Obj _ -> true | _ -> false) l ->
      block "{" "}" (List.map (fun (k, x) -> escape k ^ ": " ^ pretty ~indent:(indent + 2) x) l)
  | v -> to_string v

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip () =
    if !pos < n && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    then (incr pos; skip ())
  in
  let expect c =
    skip ();
    if !pos < n && text.[!pos] = c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then (pos := !pos + l; v)
    else fail "bad literal"
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = text.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub text !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match text.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && text.[!pos] = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            skip ();
            expect '"';
            let k = string_body () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && text.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && text.[!pos] = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !pos < n && text.[!pos] = ',' then (incr pos; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' ->
        incr pos;
        Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match text.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub text start (!pos - start)) with
        | Some x when !pos > start -> Num x
        | _ -> fail "bad value")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing input";
  v

let member key = function Obj l -> List.assoc_opt key l | _ -> None

let get_string key j =
  match member key j with Some (Str s) -> s | _ -> raise (Parse_error ("missing string " ^ key))

let get_num key j =
  match member key j with Some (Num x) -> x | _ -> raise (Parse_error ("missing number " ^ key))

let get_list key j =
  match member key j with Some (Arr l) -> l | _ -> raise (Parse_error ("missing array " ^ key))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* One JSON value per non-blank line: the --out row format. *)
let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line when String.trim line = "" -> go acc
        | line -> go (parse line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])
