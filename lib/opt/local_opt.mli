(** The scalar propagation pass.  One call counts uses and definitions
    over the function once, then:
    - collapses each single-use temporary [t = op ...; v = t] into
      [v = op ...], the two-address shapes ([v = add v, 1],
      [p = ld [p+8]]) the paper's heuristics key on;
    - propagates each single-definition constant or copy across the
      whole function, when no register involved is live into the entry
      block (a parameter excepted), so that the definition dominates
      every use;
    - within each block, folds constants, propagates constants and
      copies, eliminates common pure subexpressions and repeated
      [Global_addr]/[Slot_addr], forwards stores to loads, removes
      redundant loads and folds constant-condition branches.

    This is the optimizer's only constant folder.  Values and branch
    conditions both use the ISA's 32-bit ALU semantics
    ({!Elag_isa.Alu}), so folded results always match execution. *)

val run : Elag_ir.Ir.func -> bool
(** Returns [true] exactly when the function changed. *)
