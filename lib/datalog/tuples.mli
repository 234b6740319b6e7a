(** Sets of value tuples: the one relation representation shared by
    {!Edb}, {!Store} and the engines that read them, so a relation moves
    between a database and an evaluation's store without conversion.
    Ordered by [List.compare Value.compare], so iteration follows the
    kernel's structural order. *)

include Set.S with type elt = Recalg_kernel.Value.t list
