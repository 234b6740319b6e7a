type premise =
  | Eq_prem of Term.t * Term.t
  | Neq_prem of Term.t * Term.t

type t = { premises : premise list; lhs : Term.t; rhs : Term.t }

let equation ?(premises = []) lhs rhs = { premises; lhs; rhs }
let eq_prem a b = Eq_prem (a, b)
let neq_prem a b = Neq_prem (a, b)

let vars eq =
  let add acc (x, s) = if List.mem_assoc x acc then acc else (x, s) :: acc in
  let of_term acc t = List.fold_left add acc (Term.vars t) in
  let of_premise acc p =
    match p with
    | Eq_prem (a, b) | Neq_prem (a, b) -> of_term (of_term acc a) b
  in
  List.rev
    (List.fold_left of_premise (of_term (of_term [] eq.lhs) eq.rhs) eq.premises)

let has_negative_premise eq =
  List.exists
    (fun p ->
      match p with
      | Neq_prem _ -> true
      | Eq_prem _ -> false)
    eq.premises

let check_pair sg a b what =
  match Term.sort_of sg a, Term.sort_of sg b with
  | Ok s1, Ok s2 when String.equal s1 s2 -> Ok ()
  | Ok s1, Ok s2 -> Error (Fmt.str "%s relates sorts %s and %s" what s1 s2)
  | Error e, _ | _, Error e -> Error e

let check sg eq =
  let rec premises ps =
    match ps with
    | [] -> Ok ()
    | (Eq_prem (a, b) | Neq_prem (a, b)) :: rest -> (
      match check_pair sg a b "premise" with
      | Ok () -> premises rest
      | Error e -> Error e)
  in
  match check_pair sg eq.lhs eq.rhs "conclusion" with
  | Ok () -> premises eq.premises
  | Error e -> Error e

let pp_premise ppf p =
  match p with
  | Eq_prem (a, b) -> Fmt.pf ppf "%a = %a" Term.pp a Term.pp b
  | Neq_prem (a, b) -> Fmt.pf ppf "%a != %a" Term.pp a Term.pp b

let pp ppf eq =
  match eq.premises with
  | [] -> Fmt.pf ppf "%a = %a" Term.pp eq.lhs Term.pp eq.rhs
  | ps ->
    Fmt.pf ppf "%a -> %a = %a"
      Fmt.(list ~sep:(any " , ") pp_premise)
      ps Term.pp eq.lhs Term.pp eq.rhs
