(* Just enough JSON to read BENCHMARK.json and the per-workload result
   files, and to write results. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s and i = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at byte %d" msg !i)) in
  let rec skip () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\r' || s.[!i] = '\t') then begin
      incr i;
      skip ()
    end
  in
  let expect c = if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected %c" c) in
  let word w v =
    if !i + String.length w <= n && String.sub s !i (String.length w) = w then begin
      i := !i + String.length w;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !i >= n then fail "bad escape";
        let e = s.[!i] in
        incr i;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          if !i + 4 > n then fail "bad escape";
          Buffer.add_utf_8_uchar b
            (Uchar.of_int (int_of_string ("0x" ^ String.sub s !i 4)));
          i := !i + 4
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
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
      incr i;
      skip ();
      if !i < n && s.[!i] = '}' then (incr i; Obj [])
      else
        let rec fields acc =
          skip ();
          let k = string () in
          skip ();
          expect ':';
          let v = value () in
          skip ();
          if !i < n && s.[!i] = ',' then (incr i; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr i;
      skip ();
      if !i < n && s.[!i] = ']' then (incr i; Arr [])
      else
        let rec items acc =
          let v = value () in
          skip ();
          if !i < n && s.[!i] = ',' then (incr i; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (string ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ ->
      let start = !i in
      while !i < n && String.contains "+-0123456789.eE" s.[!i] do incr i done;
      (match float_of_string_opt (String.sub s start (!i - start)) with
      | Some f -> Num f
      | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !i <> n then fail "trailing data";
  v

let member k = function
  | Obj fields -> ( match List.assoc_opt k fields with Some v -> v | None -> raise (Error ("missing " ^ k)))
  | _ -> raise (Error ("not an object looking up " ^ k))

let to_list = function Arr xs -> xs | _ -> raise (Error "not an array")
let to_string = function Str s -> s | _ -> raise (Error "not a string")
let to_float = function Num f -> f | _ -> raise (Error "not a number")

let write_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.bprintf b "%.0f" f
  | Num f when Float.is_finite f -> Printf.bprintf b "%.17g" f
  | Num _ -> Buffer.add_string b "null"
  | Str s -> write_string b s
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri (fun i x -> if i > 0 then Buffer.add_string b ", "; write b x) xs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        write_string b k;
        Buffer.add_string b ": ";
        write b v)
      fields;
    Buffer.add_char b '}'

let show v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

let read_file path = In_channel.with_open_bin path In_channel.input_all
