(** Algebraic expressions — the query syntax of Section 3.

    The operator set is the paper's: union, difference, cartesian product,
    selection, [MAP], and the inflationary fixed point [IFP]; [Call]
    applies an operation defined by an equation (Section 3.2), and a bare
    name [Rel] denotes a database relation or a defined set constant.

    The derived operators of Example 3 — intersection and exclusive or —
    are provided as smart constructors expanding to their defining
    equations. *)

open Recalg_kernel

type t =
  | Rel of string  (** database relation or defined nullary constant *)
  | Lit of Value.t  (** ground set constant, e.g. [{0}] *)
  | Param of string  (** formal parameter of a defined operation *)
  | Union of t * t
  | Diff of t * t
  | Product of t * t
  | Select of Pred.t * t
  | Map of Efun.t * t
  | Ifp of string * t
      (** [Ifp (x, e)]: inflationary fixed point of [fun x -> e] *)
  | Call of string * t list  (** apply a defined operation *)

(** {1 Smart constructors} *)

val rel : string -> t
val lit : Value.t list -> t
(** Ground set literal from its elements. *)

val empty : t
val union : t -> t -> t
val diff : t -> t -> t
val product : t -> t -> t
val select : Pred.t -> t -> t
val map : Efun.t -> t -> t
val ifp : string -> t -> t
val call : string -> t list -> t

val inter : t -> t -> t
(** [x ∩ y = x - (x - y)] (Example 3). *)

val xor : t -> t -> t
(** [x ⊗ y = (x - y) ∪ (y - x)] (Example 3). *)

val pi : int -> t -> t
(** [MAP_{x.i}] — the paper's [pi_i] shorthand. *)

(** {1 Analysis} *)

val rel_names : t -> string list
(** Free relation names (not including [Ifp]-bound ones — those are bound
    occurrences of the fixpoint variable, represented as [Rel]). *)

val called_ops : t -> string list
val params : t -> string list
val size : t -> int

val map_rels : (string -> t) -> t -> t
(** Substitute expressions for relation names; [Ifp]-bound names are kept
    intact inside their scope. *)

val subst_params : (string * t) list -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** The [.alg] syntax: [Parser.parse_expr (to_string e) = Ok e], or
    [Invalid_argument] naming what has no concrete syntax
    ({!Efun.pp_name}). *)

val to_string : t -> string
