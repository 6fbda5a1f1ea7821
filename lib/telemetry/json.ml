(* Minimal JSON tree and serializer for telemetry reports.  Objects
   preserve insertion order so emitted reports are deterministic and
   diffable (the golden-file test depends on this). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* JSON has no NaN/Infinity; clamp to null like most emitters do. *)
let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then None
  else if Float.is_integer f then Some (Printf.sprintf "%.1f" f)
  else Some (Printf.sprintf "%.12g" f)

let rec write ~pretty ~indent buf v =
  let nl pad =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make pad ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    Buffer.add_string buf (match float_repr f with Some s -> s | None -> "null")
  | String s -> Buffer.add_string buf (escape s)
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        nl (indent + 2);
        write ~pretty ~indent:(indent + 2) buf item)
      items;
    nl indent;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        nl (indent + 2);
        Buffer.add_string buf (escape k);
        Buffer.add_char buf ':';
        if pretty then Buffer.add_char buf ' ';
        write ~pretty ~indent:(indent + 2) buf item)
      fields;
    nl indent;
    Buffer.add_char buf '}'

let to_string ?(pretty = false) v =
  let buf = Buffer.create 1024 in
  write ~pretty ~indent:0 buf v;
  Buffer.contents buf

let output ?pretty oc v =
  output_string oc (to_string ?pretty v);
  output_char oc '\n'

(* --- parsing ----------------------------------------------------------- *)

(* Recursive-descent parser over exactly the subset the serializer
   emits (plus scientific-notation floats): every fuzz-corpus entry is
   a JSON metadata file that must be read back to replay the repro
   from its seed. *)

exception Parse_error of { pos : int; msg : string }

type parser_state = { src : string; mutable pos : int }

let error p msg = raise (Parse_error { pos = p.pos; msg })

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let rec skip_ws p =
  match peek p with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance p;
    skip_ws p
  | _ -> ()

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | _ -> error p (Printf.sprintf "expected '%c'" c)

let literal p word v =
  let n = String.length word in
  if p.pos + n <= String.length p.src && String.sub p.src p.pos n = word then begin
    p.pos <- p.pos + n;
    v
  end
  else error p ("expected " ^ word)

let parse_string_body p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> error p "unterminated string"
    | Some '"' -> advance p
    | Some '\\' -> (
      advance p;
      match peek p with
      | Some '"' -> advance p; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance p; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance p; Buffer.add_char buf '/'; go ()
      | Some 'n' -> advance p; Buffer.add_char buf '\n'; go ()
      | Some 'r' -> advance p; Buffer.add_char buf '\r'; go ()
      | Some 't' -> advance p; Buffer.add_char buf '\t'; go ()
      | Some 'b' -> advance p; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance p; Buffer.add_char buf '\012'; go ()
      | Some 'u' ->
        advance p;
        if p.pos + 4 > String.length p.src then error p "truncated \\u escape";
        let hex = String.sub p.src p.pos 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | None -> error p "bad \\u escape"
        | Some code ->
          p.pos <- p.pos + 4;
          (* the escaper only emits \u00xx control codes; decode the
             BMP range as UTF-8 so round-trips of foreign input hold *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end;
          go ())
      | _ -> error p "bad escape")
    | Some c ->
      advance p;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_float = ref false in
  let rec go () =
    match peek p with
    | Some ('0' .. '9' | '-' | '+') -> advance p; go ()
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance p;
      go ()
    | _ -> ()
  in
  go ();
  let text = String.sub p.src start (p.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error p ("bad number " ^ text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      (* integer literal wider than OCaml's int: keep the value *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error p ("bad number " ^ text))

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> error p "unexpected end of input"
  | Some 'n' -> literal p "null" Null
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some '"' -> String (parse_string_body p)
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some '[' ->
    advance p;
    skip_ws p;
    if peek p = Some ']' then begin
      advance p;
      List []
    end
    else begin
      let items = ref [ parse_value p ] in
      let rec go () =
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          items := parse_value p :: !items;
          go ()
        | Some ']' -> advance p
        | _ -> error p "expected ',' or ']'"
      in
      go ();
      List (List.rev !items)
    end
  | Some '{' ->
    advance p;
    skip_ws p;
    if peek p = Some '}' then begin
      advance p;
      Obj []
    end
    else begin
      let field () =
        skip_ws p;
        let k = parse_string_body p in
        skip_ws p;
        expect p ':';
        (k, parse_value p)
      in
      let fields = ref [ field () ] in
      let rec go () =
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          fields := field () :: !fields;
          go ()
        | Some '}' -> advance p
        | _ -> error p "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !fields)
    end
  | Some c -> error p (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let p = { src = s; pos = 0 } in
  match parse_value p with
  | v ->
    skip_ws p;
    if p.pos <> String.length s then
      Error (Printf.sprintf "trailing input at offset %d" p.pos)
    else Ok v
  | exception Parse_error { pos; msg } ->
    Error (Printf.sprintf "%s at offset %d" msg pos)

(* --- accessors --------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_str = function String s -> Some s | _ -> None
