(* Three-address intermediate representation over virtual registers,
   organized as a control-flow graph of basic blocks.

   The IR reuses the ISA's memory sizes, load specifiers and comparison
   conditions ({!Elag_isa.Insn}) so that classification decisions made
   here survive code generation unchanged. *)

module Insn = Elag_isa.Insn

type vreg = int

let pp_vreg ppf v = Fmt.pf ppf "v%d" v

type operand = Reg of vreg | Imm of int

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor
  | Sll | Srl | Sra
  | Slt | Sle | Seq | Sne

type address =
  | Base of vreg * int        (* register + displacement *)
  | Base_index of vreg * vreg (* register + register *)
  | Abs of int                (* absolute *)
  | Abs_sym of string * int   (* data label + displacement, resolved at codegen *)

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
  | Global_addr of vreg * string  (* dst := address of data label *)
  | Slot_addr of vreg * int       (* dst := address of frame slot *)

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

type func =
  { name : string
  ; mutable params : vreg list
  ; mutable blocks : block list  (* entry block first *)
  ; mutable slots : slot list
  ; mutable next_vreg : int
  ; mutable next_label : int }

type data = { data_label : string; data_align : int; data_init : Elag_isa.Layout.init }

type program =
  { data : data list
  ; funcs : func list }

(* The IR binop set mirrors the ISA ALU set one-for-one; this mapping
   lets the constant folder reuse the emulator's 32-bit semantics. *)
let alu_of_binop = function
  | Add -> Insn.Add | Sub -> Insn.Sub | Mul -> Insn.Mul | Div -> Insn.Div
  | Rem -> Insn.Rem | And -> Insn.And | Or -> Insn.Or | Xor -> Insn.Xor
  | Sll -> Insn.Sll | Srl -> Insn.Srl | Sra -> Insn.Sra
  | Slt -> Insn.Slt | Sle -> Insn.Sle | Seq -> Insn.Seq | Sne -> Insn.Sne

(* --- constructors --------------------------------------------------- *)

let fresh_vreg f =
  let v = f.next_vreg in
  f.next_vreg <- f.next_vreg + 1;
  v

let fresh_label f prefix =
  let n = f.next_label in
  f.next_label <- f.next_label + 1;
  Printf.sprintf "%s.%s%d" f.name prefix n

let add_slot f ~size ~align =
  let slot_id = List.length f.slots in
  f.slots <- f.slots @ [ { slot_id; slot_size = size; slot_align = align } ];
  slot_id

let entry_block f =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg "Ir.entry_block: empty function"

let find_block f label =
  match List.find_opt (fun b -> b.label = label) f.blocks with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Ir.find_block: %s not in %s" label f.name)

(* --- uses and defs --------------------------------------------------- *)

let operand_vregs = function Reg v -> [ v ] | Imm _ -> []

let address_vregs = function
  | Base (b, _) -> [ b ]
  | Base_index (b, i) -> [ b; i ]
  | Abs _ | Abs_sym _ -> []

let inst_uses = function
  | Bin (_, _, a, b) -> operand_vregs a @ operand_vregs b
  | Mov (_, a) -> operand_vregs a
  | Load { addr; _ } -> address_vregs addr
  | Store { src; addr; _ } -> operand_vregs src @ address_vregs addr
  | Call { args; _ } -> List.concat_map operand_vregs args
  | Global_addr _ | Slot_addr _ -> []

let inst_defs = function
  | Bin (_, d, _, _) | Mov (d, _) | Load { dst = d; _ }
  | Global_addr (d, _) | Slot_addr (d, _) -> [ d ]
  | Call { dst = Some d; _ } -> [ d ]
  | Call { dst = None; _ } | Store _ -> []

let term_uses = function
  | Jmp _ -> []
  | Br { src1; src2; _ } -> operand_vregs src1 @ operand_vregs src2
  | Ret (Some op) -> operand_vregs op
  | Ret None -> []

let successors = function
  | Jmp l -> [ l ]
  | Br { ifso; ifnot; _ } -> [ ifso; ifnot ]
  | Ret _ -> []

(* Substitution in use positions: [subst] maps a register to the
   operand that replaces it, [Reg v] itself when [v] stays.  A constant
   reaching an address folds into it: a constant base makes an absolute
   address, one constant in a [Base_index] becomes the displacement. *)
let map_operand subst = function
  | Reg v -> subst v
  | Imm _ as op -> op

let subst_address subst = function
  | Base (b, d) -> (match subst b with Reg w -> Base (w, d) | Imm n -> Abs (n + d))
  | Base_index (b, i) -> begin
    match (subst b, subst i) with
    | Reg b, Reg i -> Base_index (b, i)
    | Reg b, Imm n | Imm n, Reg b -> Base (b, n)
    | Imm a, Imm b -> Abs (a + b)
  end
  | (Abs _ | Abs_sym _) as a -> a

let map_inst_uses subst = function
  | Bin (op, d, a, b) -> Bin (op, d, map_operand subst a, map_operand subst b)
  | Mov (d, a) -> Mov (d, map_operand subst a)
  | Load l -> Load { l with addr = subst_address subst l.addr }
  | Store s ->
    Store { s with src = map_operand subst s.src; addr = subst_address subst s.addr }
  | Call c -> Call { c with args = List.map (map_operand subst) c.args }
  | (Global_addr _ | Slot_addr _) as i -> i

let map_term_uses subst = function
  | Br b -> Br { b with src1 = map_operand subst b.src1; src2 = map_operand subst b.src2 }
  | Ret (Some op) -> Ret (Some (map_operand subst op))
  | (Jmp _ | Ret None) as t -> t

(* Rewrite successor labels; the terminator itself comes back when no
   label changes, so callers can test for a change physically. *)
let map_term_labels rename t =
  match t with
  | Jmp l ->
    let l' = rename l in
    if String.equal l' l then t else Jmp l'
  | Br b ->
    let ifso = rename b.ifso and ifnot = rename b.ifnot in
    if String.equal ifso b.ifso && String.equal ifnot b.ifnot then t
    else Br { b with ifso; ifnot }
  | Ret _ -> t

(* Loads and stores may touch memory; calls may too (and have other side
   effects).  Used by dead-code elimination. *)
let has_side_effect = function
  | Store _ | Call _ -> true
  | Bin _ | Mov _ | Load _ | Global_addr _ | Slot_addr _ -> false

(* --- pretty-printing -------------------------------------------------- *)

let pp_operand ppf = function
  | Reg v -> pp_vreg ppf v
  | Imm n -> Fmt.int ppf n

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor"
  | Sll -> "sll" | Srl -> "srl" | Sra -> "sra"
  | Slt -> "slt" | Sle -> "sle" | Seq -> "seq" | Sne -> "sne"

let pp_address ppf = function
  | Base (b, 0) -> Fmt.pf ppf "[%a]" pp_vreg b
  | Base (b, d) -> Fmt.pf ppf "[%a%+d]" pp_vreg b d
  | Base_index (b, i) -> Fmt.pf ppf "[%a+%a]" pp_vreg b pp_vreg i
  | Abs a -> Fmt.pf ppf "[abs %d]" a
  | Abs_sym (l, 0) -> Fmt.pf ppf "[%s]" l
  | Abs_sym (l, d) -> Fmt.pf ppf "[%s%+d]" l d

let pp_inst ppf = function
  | Bin (op, d, a, b) ->
    Fmt.pf ppf "%a = %s %a, %a" pp_vreg d (binop_name op) pp_operand a pp_operand b
  | Mov (d, a) -> Fmt.pf ppf "%a = %a" pp_vreg d pp_operand a
  | Load { spec; size; dst; addr; _ } ->
    Fmt.pf ppf "%a = %a.%d %a" pp_vreg dst Insn.pp_load_spec spec
      (Insn.size_bytes size) pp_address addr
  | Store { size; src; addr } ->
    Fmt.pf ppf "st.%d %a, %a" (Insn.size_bytes size) pp_operand src pp_address addr
  | Call { dst; callee; args } ->
    (match dst with
    | Some d -> Fmt.pf ppf "%a = call %s(%a)" pp_vreg d callee
                  Fmt.(list ~sep:comma pp_operand) args
    | None -> Fmt.pf ppf "call %s(%a)" callee Fmt.(list ~sep:comma pp_operand) args)
  | Global_addr (d, l) -> Fmt.pf ppf "%a = &%s" pp_vreg d l
  | Slot_addr (d, s) -> Fmt.pf ppf "%a = &slot%d" pp_vreg d s

let pp_term ppf = function
  | Jmp l -> Fmt.pf ppf "jmp %s" l
  | Br { cond; src1; src2; ifso; ifnot } ->
    Fmt.pf ppf "br %a %a, %a -> %s | %s" Insn.pp_cond cond pp_operand src1
      pp_operand src2 ifso ifnot
  | Ret None -> Fmt.string ppf "ret"
  | Ret (Some op) -> Fmt.pf ppf "ret %a" pp_operand op

let pp_block ppf b =
  Fmt.pf ppf "%s:@." b.label;
  List.iter (fun i -> Fmt.pf ppf "  %a@." pp_inst i) b.insts;
  Fmt.pf ppf "  %a@." pp_term b.term

let pp_func ppf f =
  Fmt.pf ppf "func %s(%a):@." f.name Fmt.(list ~sep:comma pp_vreg) f.params;
  List.iter (pp_block ppf) f.blocks

let pp_program ppf p = List.iter (pp_func ppf) p.funcs
