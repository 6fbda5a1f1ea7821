(** Control-flow cleanup, on the shape of the graph only: branches
    with identical arms become jumps, empty forwarding blocks are
    threaded, unreachable blocks are deleted, and straight-line block
    pairs are merged.  Constant-condition branches are folded by
    {!Local_opt}, the optimizer's one constant folder. *)

val run : Elag_ir.Ir.func -> bool
(** Returns whether anything changed. *)
