(** Program-level code generation: lays out static data, emits every
    function through {!Emit}, adds the [_start] shim and assembles the
    final program. *)

val generate : Elag_ir.Ir.program -> Elag_isa.Program.t
(** The stack starts at 16 MiB and grows down. *)
