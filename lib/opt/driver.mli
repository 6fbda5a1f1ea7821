(** Optimization pass driver, mirroring the pass list the paper applies
    before load classification (Section 4): function inlining, constant
    propagation, copy propagation, redundant load elimination,
    loop-invariant code removal, induction-variable strength reduction
    (including pointer-IV formation), plus cleanup passes and loop
    unrolling. *)

type level = O0 | O1 | O2
(** [O0]: no optimization. [O1]: scalar passes to a fixpoint.
    [O2]: adds loop optimizations and unrolling (the default); each of
    those is followed by a scalar fixpoint only when it changed the
    function. *)

val optimize :
  ?level:level ->
  ?inline_threshold:int ->
  ?unroll_factor:int ->
  Elag_ir.Ir.program ->
  Elag_ir.Ir.program
(** Optimize in place; the program is also returned for chaining. *)
