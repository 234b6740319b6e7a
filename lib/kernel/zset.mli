(** Z-sets: values weighted by integers.

    A Z-set maps values to {e non-zero} integer weights (the invariant
    every constructor maintains). Two things are kept as Z-sets: an
    update batch's summed weights before they meet the database (an
    insert and a delete of one tuple cancel), and a [MAP] node's image
    counts (each image with its number of preimages). A set-level change
    is not a Z-set but two disjoint sets ([Recalg_algebra.Delta.change]).

    Keys compare with {!Value.compare}, which short-circuits on physical
    equality of hash-consed values. *)

type t

val empty : t
val is_empty : t -> bool

val singleton : ?weight:int -> Value.t -> t
(** Default weight [1]; [weight = 0] yields {!empty}. *)

val weight : t -> Value.t -> int
(** [0] for absent elements. *)

val add : t -> t -> t
(** Pointwise weight addition; elements whose weights cancel vanish. *)

val negate : t -> t
val sub : t -> t -> t
(** [sub a b = add a (negate b)]. *)

val of_set : Value.t -> t
(** Every element of the set value at weight [+1]. Raises
    [Invalid_argument] if the argument is not a [Set]. *)

val map : (Value.t -> Value.t option) -> t -> t
(** Linear lift of the algebra's [MAP] on partial element functions:
    images collect the summed weights of their preimages; [None] drops
    the element. *)

val fold : (Value.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Over the elements with their weights, in {!Value.compare} order. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
