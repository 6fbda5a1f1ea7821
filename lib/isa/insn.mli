(** EPA-32 instruction set.

    A RISC instruction set with the paper's three load opcode specifiers:
    normal ([Ld_n]), table-based address prediction ([Ld_p]) and early
    address calculation through the special addressing register R_addr
    ([Ld_e]).  Loads support the three addressing modes discussed in the
    paper: register+offset, register+register and absolute. *)

type label = string

type load_spec = Ld_n | Ld_p | Ld_e

type mem_size = Byte | Half | Word

type signedness = Signed | Unsigned

type addr_mode =
  | Base_offset of Reg.t * int
  | Base_index of Reg.t * Reg.t
  | Absolute of int

type alu_op =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor
  | Sll | Srl | Sra
  | Slt | Sle | Seq | Sne

type operand = R of Reg.t | I of int

type cond = Eq | Ne | Lt | Le | Gt | Ge

type syscall = Print_int | Print_char | Exit

type t =
  | Alu of { op : alu_op; dst : Reg.t; src1 : Reg.t; src2 : operand }
  | Li of { dst : Reg.t; imm : int }
  | Load of
      { spec : load_spec
      ; size : mem_size
      ; sign : signedness
      ; dst : Reg.t
      ; addr : addr_mode }
  | Store of { size : mem_size; src : Reg.t; addr : addr_mode }
  | Branch of { cond : cond; src1 : Reg.t; src2 : operand; target : label }
  | Jump of label
  | Jal of label
  | Jalr of Reg.t
  | Jr of Reg.t
  | Syscall of syscall
  | Nop
  | Halt

val size_bytes : mem_size -> int

val uses : t -> Reg.t list
(** Source registers read by the instruction (zero register excluded). *)

val defs : t -> Reg.t list
(** Destination registers written (zero register excluded). *)

val is_load : t -> bool
val is_store : t -> bool
val is_branch : t -> bool

val load_spec : t -> load_spec option
(** [Some spec] for loads, [None] otherwise. *)

val with_load_spec : load_spec -> t -> t
(** Replace a load's specifier; identity on non-loads. *)

val pp_load_spec : load_spec Fmt.t
val pp_alu_op : alu_op Fmt.t
val pp_operand : operand Fmt.t
val pp_cond : cond Fmt.t
val pp_addr_mode : addr_mode Fmt.t
val pp : t Fmt.t
