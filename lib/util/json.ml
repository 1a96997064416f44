type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of int * string

let fail pos msg = raise (Error (pos, msg))

type state = { src : string; mutable pos : int }

let peek s = if s.pos < String.length s.src then Some s.src.[s.pos] else None

let skip_ws s =
  while
    s.pos < String.length s.src
    && match s.src.[s.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    s.pos <- s.pos + 1
  done

let expect s c =
  match peek s with
  | Some c' when c' = c -> s.pos <- s.pos + 1
  | _ -> fail s.pos (Printf.sprintf "expected %C" c)

let literal s word v =
  let n = String.length word in
  if s.pos + n <= String.length s.src && String.sub s.src s.pos n = word then begin
    s.pos <- s.pos + n;
    v
  end
  else fail s.pos (Printf.sprintf "expected %s" word)

let parse_string s =
  expect s '"';
  let b = Buffer.create 16 in
  let rec go () =
    if s.pos >= String.length s.src then fail s.pos "unterminated string";
    let c = s.src.[s.pos] in
    s.pos <- s.pos + 1;
    match c with
    | '"' -> Buffer.contents b
    | '\\' -> (
        if s.pos >= String.length s.src then fail s.pos "unterminated escape";
        let e = s.src.[s.pos] in
        s.pos <- s.pos + 1;
        match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e; go ()
        | 'b' -> Buffer.add_char b '\b'; go ()
        | 'f' -> Buffer.add_char b '\012'; go ()
        | 'n' -> Buffer.add_char b '\n'; go ()
        | 'r' -> Buffer.add_char b '\r'; go ()
        | 't' -> Buffer.add_char b '\t'; go ()
        | 'u' ->
            if s.pos + 4 > String.length s.src then fail s.pos "truncated \\u escape";
            let hex = String.sub s.src s.pos 4 in
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> fail s.pos "invalid \\u escape"
            in
            s.pos <- s.pos + 4;
            (* encode the code point as UTF-8 (surrogates are kept verbatim:
               good enough for validation round-trips of ASCII traces) *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
            end;
            go ()
        | _ -> fail (s.pos - 1) "invalid escape")
    | c when Char.code c < 0x20 -> fail (s.pos - 1) "unescaped control character"
    | c -> Buffer.add_char b c; go ()
  in
  go ()

let parse_number s =
  let start = s.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while s.pos < String.length s.src && is_num_char s.src.[s.pos] do
    s.pos <- s.pos + 1
  done;
  let text = String.sub s.src start (s.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> fail start (Printf.sprintf "invalid number %S" text)

let rec parse_value s =
  skip_ws s;
  match peek s with
  | None -> fail s.pos "unexpected end of input"
  | Some '{' ->
      expect s '{';
      skip_ws s;
      if peek s = Some '}' then begin
        s.pos <- s.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws s;
          let k = parse_string s in
          skip_ws s;
          expect s ':';
          let v = parse_value s in
          skip_ws s;
          match peek s with
          | Some ',' ->
              s.pos <- s.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              s.pos <- s.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail s.pos "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      expect s '[';
      skip_ws s;
      if peek s = Some ']' then begin
        s.pos <- s.pos + 1;
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value s in
          skip_ws s;
          match peek s with
          | Some ',' ->
              s.pos <- s.pos + 1;
              elems (v :: acc)
          | Some ']' ->
              s.pos <- s.pos + 1;
              List.rev (v :: acc)
          | _ -> fail s.pos "expected ',' or ']'"
        in
        Arr (elems [])
      end
  | Some '"' -> Str (parse_string s)
  | Some 't' -> literal s "true" (Bool true)
  | Some 'f' -> literal s "false" (Bool false)
  | Some 'n' -> literal s "null" Null
  | Some ('-' | '0' .. '9') -> parse_number s
  | Some c -> fail s.pos (Printf.sprintf "unexpected %C" c)

let parse src =
  let s = { src; pos = 0 } in
  match parse_value s with
  | v ->
      skip_ws s;
      if s.pos < String.length src then
        Result.Error (Printf.sprintf "trailing bytes at offset %d" s.pos)
      else Ok v
  | exception Error (pos, msg) ->
      Result.Error (Printf.sprintf "at offset %d: %s" pos msg)

let parse_exn src =
  match parse src with Ok v -> v | Result.Error msg -> failwith ("Json.parse: " ^ msg)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let escape_string str =
  let b = Buffer.create (String.length str + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    str;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool true -> "true"
  | Bool false -> "false"
  | Num f ->
      if not (Float.is_finite f) then "null"
      else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
      else Printf.sprintf "%.17g" f
  | Str s -> escape_string s
  | Arr xs -> "[" ^ String.concat "," (List.map to_string xs) ^ "]"
  | Obj fields ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> escape_string k ^ ":" ^ to_string v) fields)
      ^ "}"

(* --- string-level emitters ---

   The experiment and sweep documents are built as literal fragments (so
   integral floats print as "1.0", diffing cleanly across runs) rather
   than through the tree; these helpers are the single copy of that
   convention, shared by Report, Frontier and the DSE cache. *)

let float_lit v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.9g" v

let list_lit f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

let obj_lit fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> escape_string k ^ ":" ^ v) fields)
  ^ "}"

(* accessor helpers over the tree, shared by every document reader *)

let str_member key doc =
  match member key doc with Some (Str s) -> Some s | _ -> None

let int_member key doc =
  match member key doc with
  | Some (Num f) when Float.is_integer f && Float.abs f < 1e15 ->
      Some (int_of_float f)
  | _ -> None
