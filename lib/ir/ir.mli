(** Three-address intermediate representation over virtual registers,
    organized as a control-flow graph of basic blocks.

    The IR reuses the ISA's memory sizes, load specifiers and
    comparison conditions ({!Elag_isa.Insn}) so that load
    classification decisions made at this level survive code generation
    unchanged. *)

module Insn = Elag_isa.Insn

type vreg = int
(** Virtual register index, unbounded per function. *)

type operand = Reg of vreg | Imm of int

(** Arithmetic/logic operations; mirrors {!Elag_isa.Insn.alu_op}
    one-for-one (see {!alu_of_binop}). *)
type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor
  | Sll | Srl | Sra
  | Slt | Sle | Seq | Sne

(** Memory addressing, matching the ISA's three modes plus symbolic
    absolutes resolved at code generation. *)
type address =
  | Base of vreg * int        (** register + displacement *)
  | Base_index of vreg * vreg (** register + register *)
  | Abs of int                (** absolute *)
  | Abs_sym of string * int   (** data label + displacement *)

type inst =
  | Bin of binop * vreg * operand * operand
  | Mov of vreg * operand
  | Load of
      { spec : Insn.load_spec
      ; size : Insn.mem_size
      ; sign : Insn.signedness
      ; dst : vreg
      ; addr : address }
  | Store of { size : Insn.mem_size; src : operand; addr : address }
  | Call of { dst : vreg option; callee : string; args : operand list }
  | Global_addr of vreg * string  (** dst := address of data label *)
  | Slot_addr of vreg * int       (** dst := address of frame slot *)

type terminator =
  | Jmp of string
  | Br of
      { cond : Insn.cond
      ; src1 : operand
      ; src2 : operand
      ; ifso : string
      ; ifnot : string }
  | Ret of operand option

type block =
  { label : string
  ; mutable insts : inst list
  ; mutable term : terminator }

type slot = { slot_id : int; slot_size : int; slot_align : int }
(** A stack-frame slot (array, struct or address-taken scalar). *)

type func =
  { name : string
  ; mutable params : vreg list
  ; mutable blocks : block list  (** entry block first *)
  ; mutable slots : slot list
  ; mutable next_vreg : int
  ; mutable next_label : int }

type data = { data_label : string; data_align : int; data_init : Elag_isa.Layout.init }

type program =
  { data : data list
  ; funcs : func list }

val alu_of_binop : binop -> Insn.alu_op
(** The one-for-one mapping onto ISA ALU operations, letting the
    constant folder reuse the emulator's 32-bit semantics. *)

val fresh_vreg : func -> vreg
val fresh_label : func -> string -> string
val add_slot : func -> size:int -> align:int -> int

val entry_block : func -> block
(** First block; raises [Invalid_argument] on an empty function. *)

val find_block : func -> string -> block
(** Block by label; raises [Invalid_argument] if absent. *)

val address_vregs : address -> vreg list

val inst_uses : inst -> vreg list
(** Virtual registers read by the instruction. *)

val inst_defs : inst -> vreg list
(** Virtual registers written by the instruction. *)

val term_uses : terminator -> vreg list

val successors : terminator -> string list
(** Successor block labels, in branch order (taken first). *)

val map_operand : (vreg -> operand) -> operand -> operand
(** Substitute the register of a [Reg] operand; the function returns
    [Reg v] itself for a register that stays. *)

val subst_address : (vreg -> operand) -> address -> address
(** Substitute address registers.  A constant base folds into the
    address: [Base] becomes [Abs]; [Base_index] with one constant
    becomes [Base], with two [Abs].  [Abs] and [Abs_sym] are returned
    as they are. *)

val map_inst_uses : (vreg -> operand) -> inst -> inst
(** Substitute every use position: operands through {!map_operand},
    addresses through {!subst_address}.  Definitions stay. *)

val map_term_uses : (vreg -> operand) -> terminator -> terminator

val map_term_labels : (string -> string) -> terminator -> terminator
(** Rename successor labels.  Returns the terminator itself (physically)
    when no label changes. *)

val has_side_effect : inst -> bool
(** Stores and calls; everything else is pure and removable when dead. *)

val pp_func : func Fmt.t
val pp_program : program Fmt.t
