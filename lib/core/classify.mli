(** Compiler-directed load classification — the paper's Section 4.

    Assigns one of the three opcode specifiers to every static load:

    - [Ld_p] (predict): arithmetic-dependent loads in loops, and loads
      from absolute locations in acyclic code — their addresses are
      constants or strides that the table-based predictor captures;
    - [Ld_e] (early-calculate): the largest base-register group of
      load-dependent, register+offset loads — pointer-chasing chains
      whose base register is worth binding to R_addr;
    - [Ld_n] (neither): everything else, so that neither the prediction
      table nor R_addr is polluted.

    Cyclic code is analyzed per natural loop, inner loops first; a load
    is classified by its innermost enclosing loop.  The S_load set is
    the fixpoint closure of load destinations through arithmetic
    operations, exactly as in the paper.  DESIGN.md, "Load
    classification", states the rule in full. *)

val run_func : ?summaries:Elag_opt.Purity.t -> Elag_ir.Ir.func -> unit
(** Classify every load of the function in place.  Without [summaries]
    every call result is taken as load-derived. *)

val run : Elag_ir.Ir.program -> unit
(** Classify the whole program, with {!Elag_opt.Purity} summaries. *)
