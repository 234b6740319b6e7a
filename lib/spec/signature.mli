(** Many-sorted signatures: the [(S, OP)] part of a specification
    (Definition 2.1). *)

type sort = string

type op = { name : string; arg_sorts : sort list; result : sort }

type t

val make : sorts:sort list -> ops:op list -> t
val op : string -> sort list -> sort -> op
val constant : string -> sort -> op
val sorts : t -> sort list
val ops : t -> op list
val find_op : t -> string -> op option
val has_sort : t -> sort -> bool
val union : t -> t -> t
(** Import: combine two signatures; duplicate declarations must agree
    ([Invalid_argument] otherwise). *)

val pp : Format.formatter -> t -> unit
