(** Lowering from the typed MiniC tree ({!Elag_minic.Typed}) to the IR.

    Storage decisions: scalar locals whose address is never taken live
    in virtual registers (the "variable promotion" the paper's
    heuristics depend on); arrays, structs and address-taken scalars
    get frame slots.  Scalar globals are accessed with absolute
    addressing ([Ir.Abs_sym]), which the acyclic classification
    heuristic later keys on. *)

exception Error of { ctx : string; msg : string }
(** Structured lowering failure: [ctx] locates the problem (the
    function being lowered and, when the typed tree carries one, the
    source line), [msg] describes it.  Replaces the bare
    [Invalid_argument] escapes; {!Elag_harness.Compile} re-surfaces it
    as a compile error. *)

val lower_program : Elag_minic.Typed.program -> Ir.program
(** Lower every function and turn globals, string literals and their
    initializers into {!Ir.data} entries. *)
