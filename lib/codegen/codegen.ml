(* Program-level code generation: lays out static data, emits every
   function, adds the [_start] shim and assembles the final program. *)

module Ir = Elag_ir.Ir
module Insn = Elag_isa.Insn
module Reg = Elag_isa.Reg
module Layout = Elag_isa.Layout
module Program = Elag_isa.Program

(* [_start]: put the stack pointer at the top of the emulated stack
   (16 MiB), call main, halt. *)
let start_items =
  [ Program.Label "_start"
  ; Program.Insn (Insn.Li { dst = Reg.sp; imm = 16 * 1024 * 1024 })
  ; Program.Insn (Insn.Jal "main")
  ; Program.Insn Insn.Halt ]

let generate (p : Ir.program) : Program.t =
  let layout = Layout.create () in
  List.iter
    (fun (d : Ir.data) ->
      ignore (Layout.add layout ~label:d.Ir.data_label ~align:d.Ir.data_align ~init:d.Ir.data_init))
    p.Ir.data;
  let items = start_items @ List.concat_map (Emit.emit_func ~layout) p.Ir.funcs in
  Program.assemble ~layout items
