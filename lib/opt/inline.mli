(** Function inlining: small non-recursive callees are inlined
    bottom-up in the call graph.  The paper's heuristics rely on
    inlining to remove frequently-executed calls inside loops, which
    would otherwise force loads to be classified conservatively. *)

val default_threshold : int
(** Maximum callee size (instructions + blocks) to inline. *)

val run : ?threshold:int -> Elag_ir.Ir.program -> bool
