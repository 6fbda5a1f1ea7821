(* Instruction selection and emission: one IR function to a list of
   assembly items.

   Frame layout (offsets from sp, stack grows down):

     sp + 0            .. local slots (arrays, structs, spilled-to-
                          memory locals), individually aligned
     sp + spill_base   .. register-allocator spill slots, 4 bytes each
     sp + saved_base   .. callee-saved registers used by the function
     sp + size - 4     .. return address
*)

module Ir = Elag_ir.Ir
module Insn = Elag_isa.Insn
module Reg = Elag_isa.Reg
module Layout = Elag_isa.Layout
module Program = Elag_isa.Program

type frame =
  { slot_offset : int array
  ; spill_base : int
  ; saved_base : int
  ; size : int }

let align_up n a = (n + a - 1) / a * a

let layout_frame (f : Ir.func) (ra : Regalloc.result) =
  let offset = ref 0 in
  let slot_offset =
    Array.of_list
      (List.map
         (fun (s : Ir.slot) ->
           let off = align_up !offset s.Ir.slot_align in
           offset := off + s.Ir.slot_size;
           off)
         f.Ir.slots)
  in
  let spill_base = align_up !offset 4 in
  let saved_base = spill_base + (4 * ra.Regalloc.spill_count) in
  let size =
    align_up (saved_base + (4 * List.length ra.Regalloc.used_callee_saved) + 4) 8
  in
  { slot_offset; spill_base; saved_base; size }

type st =
  { mutable items : Program.item list (* reversed *)
  ; frame : frame
  ; ra : Regalloc.result
  ; layout : Layout.t
  ; epilogue : string }

let emit st insn = st.items <- Program.Insn insn :: st.items
let emit_label st l = st.items <- Program.Label l :: st.items

let spill_addr st s = Insn.Base_offset (Reg.sp, st.frame.spill_base + (4 * s))

let word_load dst addr =
  Insn.Load { spec = Insn.Ld_n; size = Insn.Word; sign = Insn.Signed; dst; addr }

let word_store src addr = Insn.Store { size = Insn.Word; src; addr }

(* Bring the value of a vreg into a register, using [scratch] for
   spilled values. *)
let use_vreg st scratch v =
  match st.ra.Regalloc.location v with
  | Regalloc.In_reg r -> r
  | Regalloc.Spilled s ->
    emit st (word_load scratch (spill_addr st s));
    scratch

(* Bring an operand into a register. *)
let use_operand st scratch = function
  | Ir.Reg v -> use_vreg st scratch v
  | Ir.Imm 0 -> Reg.zero
  | Ir.Imm n ->
    emit st (Insn.Li { dst = scratch; imm = n });
    scratch

(* ALU second operands can stay immediate. *)
let alu_operand st scratch = function
  | Ir.Reg v -> Insn.R (use_vreg st scratch v)
  | Ir.Imm n -> Insn.I n

(* Target register for defining a vreg, plus the writeback action. *)
let def_vreg st scratch v =
  match st.ra.Regalloc.location v with
  | Regalloc.In_reg r -> (r, fun () -> ())
  | Regalloc.Spilled s -> (scratch, fun () -> emit st (word_store scratch (spill_addr st s)))

let resolve_addr st scratch1 scratch2 = function
  | Ir.Base (v, d) -> Insn.Base_offset (use_vreg st scratch1 v, d)
  | Ir.Base_index (b, i) ->
    let rb = use_vreg st scratch1 b in
    let ri = use_vreg st scratch2 i in
    Insn.Base_index (rb, ri)
  | Ir.Abs a -> Insn.Absolute a
  | Ir.Abs_sym (l, d) -> Insn.Absolute (Layout.address st.layout l + d)

let move_into st dst = function
  | Ir.Imm n -> emit st (Insn.Li { dst; imm = n })
  | Ir.Reg v -> begin
    match st.ra.Regalloc.location v with
    | Regalloc.In_reg r ->
      if r <> dst then
        emit st (Insn.Alu { op = Insn.Add; dst; src1 = r; src2 = Insn.I 0 })
    | Regalloc.Spilled s -> emit st (word_load dst (spill_addr st s))
  end

let builtin_syscall = function
  | "print_int" -> Some Insn.Print_int
  | "print_char" -> Some Insn.Print_char
  | "exit" -> Some Insn.Exit
  | _ -> None

let emit_inst st inst =
  match inst with
  | Ir.Bin (op, d, a, b) ->
    let ra_ = use_operand st Reg.scratch0 a in
    let rb = alu_operand st Reg.scratch1 b in
    let rd, writeback = def_vreg st Reg.scratch0 d in
    emit st (Insn.Alu { op = Ir.alu_of_binop op; dst = rd; src1 = ra_; src2 = rb });
    writeback ()
  | Ir.Mov (d, src) -> begin
    match st.ra.Regalloc.location d with
    | Regalloc.In_reg rd -> move_into st rd src
    | Regalloc.Spilled s ->
      let r = use_operand st Reg.scratch0 src in
      emit st (word_store r (spill_addr st s))
  end
  | Ir.Load { spec; size; sign; dst; addr } ->
    let a = resolve_addr st Reg.scratch0 Reg.scratch1 addr in
    let rd, writeback = def_vreg st Reg.scratch0 dst in
    emit st (Insn.Load { spec; size; sign; dst = rd; addr = a });
    writeback ()
  | Ir.Store { size; src; addr } ->
    let rs = use_operand st Reg.scratch0 src in
    let a = resolve_addr st Reg.scratch1 Reg.scratch2 addr in
    emit st (Insn.Store { size; src = rs; addr = a })
  | Ir.Global_addr (d, label) ->
    let rd, writeback = def_vreg st Reg.scratch0 d in
    emit st (Insn.Li { dst = rd; imm = Layout.address st.layout label });
    writeback ()
  | Ir.Slot_addr (d, slot) ->
    let rd, writeback = def_vreg st Reg.scratch0 d in
    emit st
      (Insn.Alu
         { op = Insn.Add; dst = rd; src1 = Reg.sp
         ; src2 = Insn.I st.frame.slot_offset.(slot) });
    writeback ()
  | Ir.Call { dst; callee; args } -> begin
    (* Arguments go to r{arg_first..}; allocated values never live in
       argument registers, so sequential moves are safe. *)
    List.iteri
      (fun i arg ->
        if Reg.arg_first + i > Reg.arg_last then
          invalid_arg (callee ^ ": too many arguments");
        move_into st (Reg.arg_first + i) arg)
      args;
    match builtin_syscall callee with
    | Some sc ->
      emit st (Insn.Syscall sc);
      (match dst with
      | Some d ->
        let rd, writeback = def_vreg st Reg.scratch0 d in
        emit st (Insn.Li { dst = rd; imm = 0 });
        writeback ()
      | None -> ())
    | None ->
      emit st (Insn.Jal callee);
      (match dst with
      | Some d -> begin
        match st.ra.Regalloc.location d with
        | Regalloc.In_reg rd ->
          if rd <> Reg.rv then
            emit st (Insn.Alu { op = Insn.Add; dst = rd; src1 = Reg.rv; src2 = Insn.I 0 })
        | Regalloc.Spilled s -> emit st (word_store Reg.rv (spill_addr st s))
      end
      | None -> ())
  end

let emit_term st ~next_label term =
  match term with
  | Ir.Jmp l -> if Some l <> next_label then emit st (Insn.Jump l)
  | Ir.Br { cond; src1; src2; ifso; ifnot } ->
    let r1 = use_operand st Reg.scratch0 src1 in
    let o2 = alu_operand st Reg.scratch1 src2 in
    emit st (Insn.Branch { cond; src1 = r1; src2 = o2; target = ifso });
    if Some ifnot <> next_label then emit st (Insn.Jump ifnot)
  | Ir.Ret op ->
    (match op with Some op -> move_into st Reg.rv op | None -> ());
    if Some st.epilogue <> next_label then emit st (Insn.Jump st.epilogue)

let emit_func ~layout (f : Ir.func) : Program.item list =
  let ra = Regalloc.allocate f in
  let frame = layout_frame f ra in
  let st = { items = []; frame; ra; layout; epilogue = f.Ir.name ^ ".ret" } in
  (* prologue *)
  emit_label st f.Ir.name;
  if frame.size > 0 then
    emit st (Insn.Alu { op = Insn.Sub; dst = Reg.sp; src1 = Reg.sp; src2 = Insn.I frame.size });
  emit st (word_store Reg.ra (Insn.Base_offset (Reg.sp, frame.size - 4)));
  List.iteri
    (fun i r -> emit st (word_store r (Insn.Base_offset (Reg.sp, frame.saved_base + (4 * i)))))
    ra.Regalloc.used_callee_saved;
  (* parameters from argument registers into their locations *)
  List.iteri
    (fun i p ->
      let src = Reg.arg_first + i in
      match ra.Regalloc.location p with
      | Regalloc.In_reg rd ->
        if rd <> src then
          emit st (Insn.Alu { op = Insn.Add; dst = rd; src1 = src; src2 = Insn.I 0 })
      | Regalloc.Spilled s -> emit st (word_store src (spill_addr st s)))
    f.Ir.params;
  (* body *)
  let rec blocks = function
    | [] -> ()
    | (b : Ir.block) :: rest ->
      let next_label =
        match rest with
        | (nb : Ir.block) :: _ -> Some nb.Ir.label
        | [] -> Some st.epilogue
      in
      emit_label st b.Ir.label;
      List.iter (emit_inst st) b.Ir.insts;
      emit_term st ~next_label b.Ir.term;
      blocks rest
  in
  blocks f.Ir.blocks;
  (* epilogue *)
  emit_label st st.epilogue;
  List.iteri
    (fun i r -> emit st (word_load r (Insn.Base_offset (Reg.sp, frame.saved_base + (4 * i)))))
    ra.Regalloc.used_callee_saved;
  emit st (word_load Reg.ra (Insn.Base_offset (Reg.sp, frame.size - 4)));
  if frame.size > 0 then
    emit st (Insn.Alu { op = Insn.Add; dst = Reg.sp; src1 = Reg.sp; src2 = Insn.I frame.size });
  emit st (Insn.Jr Reg.ra);
  List.rev st.items
