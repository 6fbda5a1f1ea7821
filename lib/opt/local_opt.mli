(** Per-basic-block optimization: constant folding and propagation,
    copy propagation, common-subexpression elimination on pure
    operations, store-to-load forwarding, redundant-load elimination
    and constant-condition branch folding.

    This is the optimizer's only constant folder.  Values and branch
    conditions both use the ISA's 32-bit ALU semantics
    ({!Elag_isa.Alu}), so folded results always match execution. *)

val run : Elag_ir.Ir.func -> bool
(** Returns whether anything changed. *)
