open Recalg_kernel

include Set.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)
