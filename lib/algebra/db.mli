(** Algebra databases: named sets (Section 3 — "a database is a collection
    of named sets"). *)

open Recalg_kernel

type t

val empty : t
val add : string -> Value.t -> t -> t
(** The value must be a set; raises [Invalid_argument] otherwise. *)

val add_elems : string -> Value.t list -> t -> t
val of_list : (string * Value.t list) list -> t
val find : t -> string -> Value.t option
val rels : t -> string list
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** One [let name = {...};] line per relation: the database as [.alg]
    constant definitions ({!Efun.pp_value}). *)
