(** Greedy divergence-preserving minimizer over generator item lists.

    Only instructions are deleted or simplified — labels survive, so
    control targets stay resolvable — and a candidate is kept only
    when [check] confirms the original failure still reproduces.
    Callers build [check] from {!Elag_verify.Oracle.signature} so the
    shrink cannot wander onto a different bug, and treat candidates
    that fail to assemble or lint as non-reproducing. *)

val insn_count : Elag_isa.Program.item list -> int

val minimize :
  check:(Elag_isa.Program.item list -> bool) ->
  Elag_isa.Program.item list ->
  Elag_isa.Program.item list
(** Chunked deletion (halving chunk sizes) then per-instruction
    simplification, iterated to fixpoint or 8 rounds.
    [check] must return [true] iff the candidate still fails the same
    way; it is responsible for catching its own exceptions. *)
