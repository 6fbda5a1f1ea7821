(* Architectural emulator for EPA-32 programs.

   Executes the committed path and reports every retired instruction to
   an optional observer — this is the "emulation-driven" front of the
   timing simulator: the pipeline model consumes the retirement stream
   and needs no speculative-state recovery of its own. *)

module Insn = Elag_isa.Insn
module Reg = Elag_isa.Reg
module Alu = Elag_isa.Alu
module Program = Elag_isa.Program
module Layout = Elag_isa.Layout

exception Runaway of int
(** Raised when the instruction budget is exhausted (runaway loop). *)

exception Bad_jump of { pc : int; retired : int }

type t =
  { program : Program.t
  ; memory : Memory.t
  ; regs : int array
  ; mutable pc : int
  ; mutable halted : bool
  ; mutable retired : int
  ; output : Buffer.t }

(* An observer receives (program, pc, effective_address, taken,
   next_pc) for every retired instruction; the instruction is
   [Program.insn program pc].  [effective_address] is meaningful for
   loads and stores only; [taken] for control transfers. *)
type observer = Program.t -> int -> int -> bool -> int -> unit

(* Back to the program's entry: the data image in otherwise zeroed
   memory, zeroed registers, nothing retired or printed. *)
let reset t =
  Memory.reset t.memory;
  Memory.load_image t.memory (Program.data_image t.program);
  (* publish the heap base in the reserved slot below the data
     segment, where the workloads' allocator reads it *)
  Memory.write_word t.memory Layout.heap_pointer_slot (Program.heap_base t.program);
  Array.fill t.regs 0 Reg.count 0;
  t.pc <- Program.entry t.program;
  t.halted <- false;
  t.retired <- 0;
  Buffer.clear t.output

let create (program : Program.t) =
  let t =
    { program
    ; memory = Memory.create ()
    ; regs = Array.make Reg.count 0
    ; pc = 0
    ; halted = false
    ; retired = 0
    ; output = Buffer.create 256 }
  in
  reset t;
  t

let output t = Buffer.contents t.output

let retired t = t.retired

let halted t = t.halted

let effective_address regs = function
  | Insn.Base_offset (b, off) -> Array.unsafe_get regs b + off
  | Insn.Base_index (b, i) -> Array.unsafe_get regs b + Array.unsafe_get regs i
  | Insn.Absolute a -> a

let default_max_insns = 400_000_000

let no_observer : observer = fun _ _ _ _ _ -> ()

(* Top-level (not a per-step closure) so stepping allocates nothing. *)
let set regs r v = if r <> Reg.zero then Array.unsafe_set regs r v

(* Execute exactly one instruction and report it to [observer].  The
   single-step core shared by {!run} and the differential oracle's
   lockstep reference emulator. *)
let exec_one (observer : observer) t =
  let regs = t.regs in
  let mem = t.memory in
  let pc = t.pc in
  if pc < 0 || pc >= Program.length t.program then
    raise (Bad_jump { pc; retired = t.retired });
  let insn = Program.insn t.program pc in
  let next = pc + 1 in
  let eff = ref 0 in
  let taken = ref false in
  let next_pc = ref next in
  (match insn with
  | Insn.Alu { op; dst; src1; src2 } ->
    let a = Array.unsafe_get regs src1 in
    let b = match src2 with Insn.R r -> Array.unsafe_get regs r | Insn.I n -> n in
    set regs dst (Alu.eval op a b)
  | Insn.Li { dst; imm } -> set regs dst (Alu.norm imm)
  | Insn.Load { size; sign; dst; addr; _ } ->
    let a = effective_address regs addr in
    eff := a;
    let v =
      match (size, sign) with
      | Insn.Byte, Insn.Unsigned -> Memory.read_byte_u mem a
      | Insn.Byte, Insn.Signed -> Memory.read_byte_s mem a
      | Insn.Half, Insn.Unsigned -> Memory.read_half_u mem a
      | Insn.Half, Insn.Signed -> Memory.read_half_s mem a
      | Insn.Word, _ -> Memory.read_word mem a
    in
    set regs dst v
  | Insn.Store { size; src; addr } ->
    let a = effective_address regs addr in
    eff := a;
    let v = Array.unsafe_get regs src in
    (match size with
    | Insn.Byte -> Memory.write_byte mem a v
    | Insn.Half -> Memory.write_half mem a v
    | Insn.Word -> Memory.write_word mem a v)
  | Insn.Branch { cond; src1; src2; _ } ->
    let a = Array.unsafe_get regs src1 in
    let b = match src2 with Insn.R r -> Array.unsafe_get regs r | Insn.I n -> n in
    if Alu.eval_cond cond a b then begin
      taken := true;
      next_pc := Program.target t.program pc
    end
  | Insn.Jump _ ->
    taken := true;
    next_pc := Program.target t.program pc
  | Insn.Jal _ ->
    set regs Reg.ra next;
    taken := true;
    next_pc := Program.target t.program pc
  | Insn.Jalr r ->
    let target = Array.unsafe_get regs r in
    set regs Reg.ra next;
    taken := true;
    next_pc := target
  | Insn.Jr r ->
    taken := true;
    next_pc := Array.unsafe_get regs r
  | Insn.Syscall Insn.Print_int ->
    Buffer.add_string t.output (string_of_int regs.(Reg.arg_first));
    Buffer.add_char t.output '\n'
  | Insn.Syscall Insn.Print_char ->
    Buffer.add_char t.output (Char.chr (regs.(Reg.arg_first) land 0xff))
  | Insn.Syscall Insn.Exit -> t.halted <- true
  | Insn.Nop -> ()
  | Insn.Halt -> t.halted <- true);
  t.retired <- t.retired + 1;
  observer t.program pc !eff !taken !next_pc;
  t.pc <- !next_pc

let step ?(observer = no_observer) t =
  if t.halted then false
  else begin
    exec_one observer t;
    true
  end

let run ?(observer = no_observer) ?(max_insns = default_max_insns) t =
  while not t.halted do
    if t.retired >= max_insns then raise (Runaway t.retired);
    exec_one observer t
  done

(* Convenience: assemble-run and return the printed output. *)
let run_program ?observer ?max_insns program =
  let t = create program in
  run ?observer ?max_insns t;
  t
