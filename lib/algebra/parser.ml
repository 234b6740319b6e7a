open Recalg_kernel

type program = { defs : Defs.t; query : Expr.t option }

type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | LPAREN | RPAREN
  | LBRACKET | RBRACKET
  | LBRACE | RBRACE
  | COMMA | SEMI | DOT | DOLLAR
  | PLUS | MINUS
  | EQUAL | NOTEQUAL | LT | LEQ
  | EOF

exception Parse_error of string

let error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* The string literal whose opening quote is at [i], decoding the
   escapes OCaml's [%S] writes; returns it with the offset after its
   closing quote. *)
let read_string src i =
  let n = String.length src in
  let b = Buffer.create 16 in
  let rec go j =
    if j >= n then error "unterminated string literal"
    else
      match src.[j] with
      | '"' -> j + 1
      | '\\' when j + 1 < n -> (
        match src.[j + 1] with
        | 'n' -> Buffer.add_char b '\n'; go (j + 2)
        | 't' -> Buffer.add_char b '\t'; go (j + 2)
        | 'r' -> Buffer.add_char b '\r'; go (j + 2)
        | 'b' -> Buffer.add_char b '\b'; go (j + 2)
        | '0' .. '9' -> (
          match int_of_string_opt (String.sub src (j + 1) (min 3 (n - j - 1))) with
          | Some k when k < 256 -> Buffer.add_char b (Char.chr k); go (j + 4)
          | _ -> error "bad escape at offset %d" j)
        | c -> Buffer.add_char b c; go (j + 2))
      | c -> Buffer.add_char b c; go (j + 1)
  in
  let next = go (i + 1) in
  (Buffer.contents b, next)

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '%' then
      while !i < n && src.[!i] <> '\n' do incr i done
    else if c = '(' then (emit LPAREN; incr i)
    else if c = ')' then (emit RPAREN; incr i)
    else if c = '[' then (emit LBRACKET; incr i)
    else if c = ']' then (emit RBRACKET; incr i)
    else if c = '{' then (emit LBRACE; incr i)
    else if c = '}' then (emit RBRACE; incr i)
    else if c = ',' then (emit COMMA; incr i)
    else if c = ';' then (emit SEMI; incr i)
    else if c = '.' then (emit DOT; incr i)
    else if c = '$' then (emit DOLLAR; incr i)
    else if c = '+' then (emit PLUS; incr i)
    else if c = '=' then (emit EQUAL; incr i)
    else if c = '!' && !i + 1 < n && src.[!i + 1] = '=' then (emit NOTEQUAL; i := !i + 2)
    else if c = '<' && !i + 1 < n && src.[!i + 1] = '=' then (emit LEQ; i := !i + 2)
    else if c = '<' then (emit LT; incr i)
    else if c = '"' then begin
      let str, next = read_string src !i in
      emit (STRING str);
      i := next
    end
    else if (c >= '0' && c <= '9')
            || (c = '-' && !i + 1 < n && src.[!i + 1] >= '0' && src.[!i + 1] <= '9')
    then begin
      let start = !i in
      incr i;
      while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do incr i done;
      emit (INT (int_of_string (String.sub src start (!i - start))))
    end
    else if c = '-' then (emit MINUS; incr i)
    else if is_ident c then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do incr i done;
      emit (IDENT (String.sub src start (!i - start)))
    end
    else error "unexpected character %C at offset %d" c !i
  done;
  emit EOF;
  List.rev !tokens

type stream = { mutable toks : token list }

let peek s = match s.toks with t :: _ -> t | [] -> EOF
let advance s = match s.toks with _ :: rest -> s.toks <- rest | [] -> ()

let expect s tok name = if peek s = tok then advance s else error "expected %s" name

let ident s =
  match peek s with
  | IDENT w -> advance s; w
  | _ -> error "expected an identifier"

let index s what =
  match peek s with
  | INT k -> advance s; k
  | _ -> error "expected %s" what

let parens s p =
  expect s LPAREN "(";
  let x = p s in
  expect s RPAREN ")";
  x

(* One or more [p], comma-separated. *)
let rec comma_list s p =
  let x = p s in
  if peek s = COMMA then (advance s; x :: comma_list s p) else [ x ]

(* Zero or more [p], comma-separated, then the token [close]. *)
let list_to s close name p =
  let xs = if peek s = close then [] else comma_list s p in
  expect s close name;
  xs

(* --- values (inside set literals) --- *)

let rec parse_value s =
  match peek s with
  | INT k -> advance s; Value.int k
  | STRING str -> advance s; Value.str str
  | IDENT "true" -> advance s; Value.bool true
  | IDENT "false" -> advance s; Value.bool false
  | IDENT w ->
    advance s;
    if peek s = LPAREN then (advance s; Value.cstr w (list_to s RPAREN ")" parse_value))
    else Value.sym w
  | LBRACKET -> advance s; Value.tuple (list_to s RBRACKET "]" parse_value)
  | LBRACE -> advance s; Value.set (list_to s RBRACE "}" parse_value)
  | _ -> error "expected a value"

(* --- element functions --- *)

let rec parse_efun s =
  let base = parse_efun_atom s in
  if peek s = DOT then begin
    advance s;
    let rest = parse_efun s in
    Efun.Compose (base, rest)
  end
  else base

and parse_efun_atom s =
  match peek s with
  | LPAREN -> parens s parse_efun
  | IDENT "id" -> advance s; Efun.Id
  | INT _ | STRING _ | LBRACE | IDENT ("true" | "false") -> Efun.Const (parse_value s)
  | LBRACKET -> advance s; Efun.Tuple_of (list_to s RBRACKET "]" parse_efun)
  | IDENT "arg" ->
    advance s;
    expect s LPAREN "(";
    let name = ident s in
    expect s COMMA ",";
    let idx = index s "an index in arg(name, i)" in
    expect s RPAREN ")";
    Efun.Arg (name, idx)
  | IDENT w -> (
    match Efun.proj_of_ident w with
    | Some k -> advance s; Efun.Proj k
    | None ->
      advance s;
      if peek s = LPAREN then (advance s; Efun.App (w, list_to s RPAREN ")" parse_efun))
      else Efun.Const (Value.sym w))
  | _ -> error "expected an element function"

(* --- selection tests --- *)

let rec parse_pred s = parse_pred_or s

and parse_pred_or s =
  let left = parse_pred_and s in
  match peek s with
  | IDENT "or" -> advance s; Pred.Or (left, parse_pred_or s)
  | _ -> left

and parse_pred_and s =
  let left = parse_pred_atom s in
  match peek s with
  | IDENT "and" -> advance s; Pred.And (left, parse_pred_and s)
  | _ -> left

and parse_pred_atom s =
  match peek s with
  | IDENT "not" -> advance s; Pred.Not (parse_pred_atom s)
  | IDENT "is" ->
    advance s;
    expect s LPAREN "(";
    let name = ident s in
    expect s COMMA ",";
    let arity = index s "an arity in is(name, arity, f)" in
    expect s COMMA ",";
    let f = parse_efun s in
    expect s RPAREN ")";
    Pred.Is_cstr (name, arity, f)
  | LPAREN | IDENT ("true" | "false") -> (
    (* Ambiguous: a test -- "(p or q)", "true" -- or the start of a
       comparison -- "(pi2 . pi1) = pi2", "true = pi1". Read a comparison
       first, and the test when none parses. *)
    let saved = s.toks in
    try parse_comparison s
    with Parse_error _ -> (
      s.toks <- saved;
      match peek s with
      | IDENT "true" -> advance s; Pred.True
      | IDENT "false" -> advance s; Pred.False
      | _ -> parens s parse_pred))
  | _ -> parse_comparison s

and parse_comparison s =
  let f = parse_efun s in
  match peek s with
  | EQUAL -> advance s; Pred.Eq (f, parse_efun s)
  | NOTEQUAL -> advance s; Pred.Neq (f, parse_efun s)
  | LT -> advance s; Pred.Lt (f, parse_efun s)
  | LEQ -> advance s; Pred.Leq (f, parse_efun s)
  | IDENT "in" -> advance s; Pred.Mem (f, parse_efun s)
  | _ -> error "expected a comparison operator"

(* --- expressions --- *)

let rec parse_expr_s s =
  let left = parse_expr_atom s in
  match peek s with
  | PLUS -> advance s; Expr.Union (left, parse_expr_s s)
  | MINUS -> advance s; Expr.Diff (left, parse_expr_s s)
  | IDENT "x" -> advance s; Expr.Product (left, parse_expr_s s)
  | _ -> left

and parse_expr_atom s =
  match peek s with
  | LPAREN -> parens s parse_expr_s
  | LBRACE ->
    let v = parse_value s in
    if not (Value.is_set v) then error "a literal expression must be a set";
    Expr.Lit v
  | DOLLAR ->
    advance s;
    Expr.Param (ident s)
  | IDENT "sel" ->
    advance s;
    expect s LBRACKET "[";
    let p = parse_pred s in
    expect s RBRACKET "]";
    Expr.Select (p, parens s parse_expr_s)
  | IDENT "map" ->
    advance s;
    expect s LBRACKET "[";
    let f = parse_efun s in
    expect s RBRACKET "]";
    Expr.Map (f, parens s parse_expr_s)
  | IDENT "ifp" ->
    advance s;
    let v = ident s in
    expect s DOT ".";
    let e = parse_expr_s s in
    Expr.Ifp (v, e)
  | IDENT w -> (
    advance s;
    match Efun.proj_of_ident w with
    | Some k -> Expr.Map (Efun.Proj k, parens s parse_expr_s)
    | None ->
      if peek s = LPAREN then (advance s; Expr.Call (w, list_to s RPAREN ")" parse_expr_s))
      else Expr.Rel w)
  | _ -> error "expected an expression"

(* --- programs --- *)

let parse_def s =
  expect s (IDENT "let") "let";
  let name = ident s in
  if List.mem name Efun.keywords then error "%s is a reserved word" name;
  let params = if peek s = LPAREN then parens s (fun s -> comma_list s ident) else [] in
  expect s EQUAL "=";
  let body = parse_expr_s s in
  expect s SEMI ";";
  Defs.define name params body

let parse_program_s builtins s =
  let rec go defs query =
    match peek s with
    | EOF -> { defs = Defs.make ~builtins (List.rev defs); query }
    | IDENT "let" -> go (parse_def s :: defs) query
    | IDENT "query" ->
      advance s;
      let e = parse_expr_s s in
      expect s SEMI ";";
      if query <> None then error "multiple queries";
      go defs (Some e)
    | _ -> error "expected 'let' or 'query'"
  in
  go [] None

let wrap f = try Ok (f ()) with Parse_error msg -> Error msg

let parse_expr ?builtins:_ src =
  wrap (fun () ->
      let s = { toks = tokenize src } in
      let e = parse_expr_s s in
      if peek s <> EOF then error "trailing input after expression";
      e)

let parse_program ?(builtins = Builtins.default) src =
  wrap (fun () -> parse_program_s builtins { toks = tokenize src })

let parse_program_exn ?builtins src =
  match parse_program ?builtins src with
  | Ok p -> p
  | Error msg -> invalid_arg ("Algebra parser: " ^ msg)
