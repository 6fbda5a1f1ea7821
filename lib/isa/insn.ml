(* EPA-32 instruction set.

   A small RISC ISA with HP PA-7100-like latencies (1-cycle integer
   ALU operations, 2-cycle loads) and the three load opcode specifiers
   introduced by the paper: [Ld_n] (normal), [Ld_p] (table-based address
   prediction) and [Ld_e] (early address calculation through R_addr). *)

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

let size_bytes = function Byte -> 1 | Half -> 2 | Word -> 4

let addr_mode_registers = function
  | Base_offset (b, _) -> [ b ]
  | Base_index (b, i) -> [ b; i ]
  | Absolute _ -> []

let operand_registers = function R r -> [ r ] | I _ -> []

(* Source registers read by the instruction, excluding the hard-wired
   zero register (which never creates a hazard). *)
let uses insn =
  let raw =
    match insn with
    | Alu { src1; src2; _ } -> src1 :: operand_registers src2
    | Li _ -> []
    | Load { addr; _ } -> addr_mode_registers addr
    | Store { src; addr; _ } -> src :: addr_mode_registers addr
    | Branch { src1; src2; _ } -> src1 :: operand_registers src2
    | Jump _ | Jal _ -> []
    | Jalr r | Jr r -> [ r ]
    | Syscall (Print_int | Print_char) -> [ Reg.arg_first ]
    | Syscall Exit -> []
    | Nop | Halt -> []
  in
  List.filter (fun r -> r <> Reg.zero) raw

(* Destination registers written by the instruction. *)
let defs = function
  | Alu { dst; _ } | Li { dst; _ } | Load { dst; _ } ->
    if dst = Reg.zero then [] else [ dst ]
  | Jal _ | Jalr _ -> [ Reg.ra ]
  | Store _ | Branch _ | Jump _ | Jr _ | Syscall _ | Nop | Halt -> []

let is_load = function Load _ -> true | _ -> false
let is_store = function Store _ -> true | _ -> false

let is_branch = function
  | Branch _ | Jump _ | Jal _ | Jalr _ | Jr _ -> true
  | _ -> false

let load_spec = function Load { spec; _ } -> Some spec | _ -> None

let with_load_spec spec = function
  | Load l -> Load { l with spec }
  | insn -> insn

let pp_load_spec ppf spec =
  Fmt.string ppf (match spec with Ld_n -> "ld_n" | Ld_p -> "ld_p" | Ld_e -> "ld_e")

let pp_alu_op ppf op =
  Fmt.string ppf
    (match op with
    | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
    | And -> "and" | Or -> "or" | Xor -> "xor"
    | Sll -> "sll" | Srl -> "srl" | Sra -> "sra"
    | Slt -> "slt" | Sle -> "sle" | Seq -> "seq" | Sne -> "sne")

let pp_operand ppf = function R r -> Reg.pp ppf r | I n -> Fmt.int ppf n

let pp_cond ppf c =
  Fmt.string ppf
    (match c with
    | Eq -> "beq" | Ne -> "bne" | Lt -> "blt" | Le -> "ble" | Gt -> "bgt" | Ge -> "bge")

let pp_addr_mode ppf = function
  | Base_offset (b, off) -> Fmt.pf ppf "%d(%a)" off Reg.pp b
  | Base_index (b, i) -> Fmt.pf ppf "(%a+%a)" Reg.pp b Reg.pp i
  | Absolute a -> Fmt.pf ppf "[%d]" a

let mem_suffix size sign =
  match (size, sign) with
  | Byte, Signed -> "b"
  | Byte, Unsigned -> "bu"
  | Half, Signed -> "h"
  | Half, Unsigned -> "hu"
  | Word, _ -> "w"

let pp ppf = function
  | Alu { op; dst; src1; src2 } ->
    Fmt.pf ppf "%a %a, %a, %a" pp_alu_op op Reg.pp dst Reg.pp src1 pp_operand src2
  | Li { dst; imm } -> Fmt.pf ppf "li %a, %d" Reg.pp dst imm
  | Load { spec; size; sign; dst; addr } ->
    Fmt.pf ppf "%a.%s %a, %a" pp_load_spec spec (mem_suffix size sign) Reg.pp dst
      pp_addr_mode addr
  | Store { size; src; addr } ->
    Fmt.pf ppf "st.%s %a, %a" (mem_suffix size Signed) Reg.pp src pp_addr_mode addr
  | Branch { cond; src1; src2; target } ->
    Fmt.pf ppf "%a %a, %a, %s" pp_cond cond Reg.pp src1 pp_operand src2 target
  | Jump l -> Fmt.pf ppf "j %s" l
  | Jal l -> Fmt.pf ppf "jal %s" l
  | Jalr r -> Fmt.pf ppf "jalr %a" Reg.pp r
  | Jr r -> Fmt.pf ppf "jr %a" Reg.pp r
  | Syscall Print_int -> Fmt.string ppf "sys print_int"
  | Syscall Print_char -> Fmt.string ppf "sys print_char"
  | Syscall Exit -> Fmt.string ppf "sys exit"
  | Nop -> Fmt.string ppf "nop"
  | Halt -> Fmt.string ppf "halt"
