(** Loop-invariant code motion.  For every natural loop (inner-first)
    a preheader is created and invariant instructions are hoisted into
    it; invariant loads are hoisted too when the loop is free of
    stores and memory-writing calls, which doubles as cross-iteration
    redundant-load elimination (one of the passes the paper's
    heuristics assume).  With interprocedural [summaries], calls to
    store-free functions do not block load hoisting — the paper's
    future-work "more aggressive analysis". *)

val make_preheader : Elag_ir.Ir.func -> Elag_ir.Loops.loop -> Elag_ir.Ir.block
(** Create (or reuse) the loop's preheader: the unique non-latch
    predecessor of the header.  The loop's snapshot must be current
    for the function (see {!Elag_ir.Loops.rebase}).  Shared with
    {!Strength_reduce} and {!Addr_promote}. *)

val loop_def_counts : Elag_ir.Loops.loop -> (Elag_ir.Ir.vreg, int) Hashtbl.t
(** How many times each register is defined in the loop's body; a
    register is absent when it has no definition there.  Shared with
    {!Addr_promote}. *)

val run : ?summaries:Purity.t -> Elag_ir.Ir.func -> bool
