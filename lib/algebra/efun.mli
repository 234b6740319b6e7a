(** Element (restructuring) functions — the functions [f] of the algebra's
    [MAP_f] operator and the building blocks of selection tests.

    The framework is first order (Section 3.1): operators are generic in
    these functions only as a macro facility, so element functions are
    plain first-order syntax, interpreted over single values. Application
    is partial: projecting a non-tuple, or applying an interpreted
    function outside its domain, is undefined and the containing [MAP]
    drops the element. *)

open Recalg_kernel

type t =
  | Id
  | Proj of int  (** 1-based tuple projection — the paper's [pi_i] *)
  | Tuple_of of t list
  | Const of Value.t
  | App of string * t list
      (** function application; interpreted when registered in the
          builtins, free constructor otherwise. Arguments are element
          functions applied to the same input. *)
  | Arg of string * int  (** 1-based destructor for [Cstr] terms *)
  | Compose of t * t  (** [Compose (f, g)] is [fun x -> f (g x)] *)

val apply : Builtins.t -> t -> Value.t -> Value.t option

val apply_pair : Builtins.t -> t -> Value.t -> Value.t -> Value.t option
(** [apply_pair builtins f x y = apply builtins f (Value.pair x y)] for
    every [f]. The pair is built only where [f] needs it whole: [Id]
    returns it, and a projection other than [pi1] and [pi2], or an
    [Arg], reads it as [apply] does. So a join mapped through [f]
    interns the images, not the pairs. *)

(** {1 Convenience constructors} *)

val add_const : int -> t
(** [fun x -> x + k] — the [MAP_{+2}] of the even-numbers example. *)

val pi : int -> t

(** {1 Concrete syntax}

    Every [pp] of the algebra prints the [.alg] syntax {!Parser} reads:
    a printed term parses back to itself, or [pp] raises
    [Invalid_argument] naming what has no syntax in its position. *)

val keywords : string list
(** The reserved words. *)

val proj_of_ident : string -> int option
(** [Some i] when an identifier reads as the projection [pi<i>]. *)

val pp_name : Format.formatter -> string -> unit
(** Raises [Invalid_argument] naming a name that is not an identifier,
    or is spelled like a reserved word or a projection. *)

val pp_value : Format.formatter -> Value.t -> unit
(** [Value.pp], after checking each symbol and constructor name as
    {!pp_name} does. *)

val pp : Format.formatter -> t -> unit
(** Also raises on a tuple or constructor constant, which would read
    back as [Tuple_of] or [App]. *)
