open Recalg_kernel

type token =
  | IDENT of string
  | VAR of string
  | INT of int
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | PERIOD
  | TURNSTILE
  | EQUAL
  | NOTEQUAL
  | NOT
  | EOF

exception Parse_error of string

let error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '%' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '(' then (emit LPAREN; incr i)
    else if c = ')' then (emit RPAREN; incr i)
    else if c = ',' then (emit COMMA; incr i)
    else if c = '.' then (emit PERIOD; incr i)
    else if c = '=' then (emit EQUAL; incr i)
    else if c = '!' && !i + 1 < n && src.[!i + 1] = '=' then (emit NOTEQUAL; i := !i + 2)
    else if c = ':' && !i + 1 < n && src.[!i + 1] = '-' then (emit TURNSTILE; i := !i + 2)
    else if c = '"' then begin
      let start = !i + 1 in
      let j = ref start in
      while !j < n && src.[!j] <> '"' do
        incr j
      done;
      if !j >= n then error "unterminated string literal";
      emit (STRING (String.sub src start (!j - start)));
      i := !j + 1
    end
    else if (c >= '0' && c <= '9') || (c = '-' && !i + 1 < n && src.[!i + 1] >= '0' && src.[!i + 1] <= '9')
    then begin
      let start = !i in
      incr i;
      while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do
        incr i
      done;
      emit (INT (int_of_string (String.sub src start (!i - start))))
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      let word = String.sub src start (!i - start) in
      if String.equal word "not" then emit NOT
      else if (word.[0] >= 'A' && word.[0] <= 'Z') || word.[0] = '_' then emit (VAR word)
      else emit (IDENT word)
    end
    else error "unexpected character %C at offset %d" c !i
  done;
  emit EOF;
  List.rev !tokens

type stream = { mutable toks : token list }

let peek s =
  match s.toks with
  | t :: _ -> t
  | [] -> EOF

let advance s =
  match s.toks with
  | _ :: rest -> s.toks <- rest
  | [] -> ()

let expect s tok name =
  if peek s = tok then advance s else error "expected %s" name

let rec parse_term_s s =
  match peek s with
  | VAR x ->
    advance s;
    Dterm.var x
  | INT k ->
    advance s;
    Dterm.int k
  | STRING str ->
    advance s;
    Dterm.cst (Value.str str)
  | IDENT f -> (
    advance s;
    match peek s with
    | LPAREN ->
      advance s;
      let args = if peek s = RPAREN then [] else parse_term_list s in
      expect s RPAREN ")";
      Dterm.app f args
    | _ ->
      if String.equal f "true" then Dterm.cst (Value.bool true)
      else if String.equal f "false" then Dterm.cst (Value.bool false)
      else Dterm.sym f)
  | _ -> error "expected a term"

and parse_term_list s =
  let first = parse_term_s s in
  match peek s with
  | COMMA ->
    advance s;
    first :: parse_term_list s
  | _ -> [ first ]

let parse_atom_s s =
  match peek s with
  | IDENT p -> (
    advance s;
    match peek s with
    | LPAREN ->
      advance s;
      let args = if peek s = RPAREN then [] else parse_term_list s in
      expect s RPAREN ")";
      Literal.atom p args
    | _ -> Literal.atom p [])
  | _ -> error "expected a predicate name"

let parse_literal_s s =
  match peek s with
  | NOT ->
    advance s;
    Literal.Neg (parse_atom_s s)
  | _ -> (
    (* Could be an atom or an (in)equality between terms; parse a term
       first and decide by the next token. An atom is a special case of a
       term shape, so re-interpret. *)
    let t = parse_term_s s in
    match peek s with
    | EQUAL ->
      advance s;
      let t2 = parse_term_s s in
      Literal.Eq (t, t2)
    | NOTEQUAL ->
      advance s;
      let t2 = parse_term_s s in
      Literal.Neq (t, t2)
    | _ -> (
      match t with
      | Dterm.App (p, args) -> Literal.Pos (Literal.atom p args)
      | Dterm.Cst v -> (
        match Value.node v with
        | Value.Sym p -> Literal.Pos (Literal.atom p [])
        | _ -> error "expected an atom or an (in)equality")
      | _ -> error "expected an atom or an (in)equality"))

let rec parse_literals_s s =
  let first = parse_literal_s s in
  match peek s with
  | COMMA ->
    advance s;
    first :: parse_literals_s s
  | _ -> [ first ]

let parse_rule_s s =
  let head = parse_atom_s s in
  match peek s with
  | PERIOD ->
    advance s;
    Rule.make head []
  | TURNSTILE ->
    advance s;
    let body = parse_literals_s s in
    expect s PERIOD ".";
    Rule.make head body
  | _ -> error "expected '.' or ':-' after rule head"

let wrap f =
  try Ok (f ()) with
  | Parse_error msg -> Error msg

let parse_rule ?builtins:_ src =
  wrap (fun () ->
      let s = { toks = tokenize src } in
      let r = parse_rule_s s in
      if peek s <> EOF then error "trailing input after rule";
      r)

let parse ?(builtins = Builtins.default) src =
  wrap (fun () ->
      let s = { toks = tokenize src } in
      let rec go rules edb =
        if peek s = EOF then (Program.make ~builtins (List.rev rules), edb)
        else
          let r = parse_rule_s s in
          if Rule.is_fact r then (
            match Literal.ground_atom builtins Subst.empty r.Rule.head with
            | Some (pred, args) -> go rules (Edb.add pred args edb)
            | None ->
              error "fact %a uses an undefined interpreted function" Rule.pp r)
          else go (r :: rules) edb
      in
      go [] Edb.empty)

let parse_exn ?builtins src =
  match parse ?builtins src with
  | Ok result -> result
  | Error msg -> invalid_arg ("Parser.parse: " ^ msg)
