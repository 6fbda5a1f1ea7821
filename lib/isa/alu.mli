(** 32-bit ALU semantics shared by the emulator and the constant
    folder.  Values are OCaml ints normalized to the signed 32-bit
    range; division by zero yields 0. *)

val norm : int -> int
(** Normalize to the signed 32-bit range. *)

val eval : Insn.alu_op -> int -> int -> int

val eval_cond : Insn.cond -> int -> int -> bool
