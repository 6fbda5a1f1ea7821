(* Per-basic-block optimization: constant folding and propagation, copy
   propagation, common-subexpression elimination on pure operations,
   store-to-load forwarding, redundant-load elimination, and folding of
   constant-condition branches.  It is the optimizer's one constant
   folder: values and conditions both go through {!Alu}, the emulator's
   32-bit semantics.

   The block is walked forward while maintaining:
   - [env]: the current known value (constant or copy source) of each
     virtual register;
   - [exprs]: available pure expressions keyed by (op, operands);
   - [mem]: available memory values keyed by canonical address+size.

   Invalidations: redefining [v] drops every table entry mentioning
   [v]; stores and calls drop memory entries (a store then records its
   own forwarding entry). *)

module Ir = Elag_ir.Ir

module Insn = Elag_isa.Insn
module Alu = Elag_isa.Alu

type env =
  { mutable values : (Ir.vreg * Ir.operand) list
  ; mutable exprs : ((Ir.binop * Ir.operand * Ir.operand) * Ir.vreg) list
  ; mutable addrs : ((string * int) * Ir.vreg) list
    (* Global_addr/Slot_addr availability: key = (kind-tagged name, n) *)
  ; mutable mem : ((Ir.address * Insn.mem_size * Insn.signedness) * Ir.operand) list }

let empty () = { values = []; exprs = []; addrs = []; mem = [] }

let lookup_value env v = List.assoc_opt v env.values

(* The operand a use of [v] stands for: its known value, or itself. *)
let subst env v = match lookup_value env v with Some op -> op | None -> Ir.Reg v

let operand_mentions v = function Ir.Reg w -> w = v | Ir.Imm _ -> false

let address_mentions v = function
  | Ir.Base (b, _) -> b = v
  | Ir.Base_index (b, i) -> b = v || i = v
  | Ir.Abs _ | Ir.Abs_sym _ -> false

(* Drop every table entry that mentions [v]. *)
let invalidate env v =
  env.values <-
    List.filter (fun (d, op) -> d <> v && not (operand_mentions v op)) env.values;
  env.exprs <-
    List.filter
      (fun ((_, a, b), d) ->
        d <> v && not (operand_mentions v a) && not (operand_mentions v b))
      env.exprs;
  env.addrs <- List.filter (fun (_, d) -> d <> v) env.addrs;
  env.mem <-
    List.filter
      (fun ((addr, _, _), value) ->
        (not (address_mentions v addr)) && not (operand_mentions v value))
      env.mem

let invalidate_memory env = env.mem <- []

(* Commutative operators get normalized operand order so that CSE and
   folding find more matches. *)
let is_commutative = function
  | Ir.Add | Ir.Mul | Ir.And | Ir.Or | Ir.Xor | Ir.Seq | Ir.Sne -> true
  | _ -> false

let normalize_bin op a b =
  if is_commutative op then
    match (a, b) with
    | Ir.Imm _, Ir.Reg _ -> (b, a)
    | Ir.Reg x, Ir.Reg y when x > y -> (b, a)
    | _ -> (a, b)
  else (a, b)

(* Algebraic simplification of a binop with substituted operands;
   returns either a simpler operand or the (possibly normalized)
   operation. *)
let simplify_bin op a b =
  match (op, a, b) with
  | _, Ir.Imm x, Ir.Imm y -> `Value (Ir.Imm (Alu.eval (Ir.alu_of_binop op) x y))
  | (Ir.Add | Ir.Or | Ir.Xor | Ir.Sll | Ir.Srl | Ir.Sra), v, Ir.Imm 0 -> `Value v
  | (Ir.Add | Ir.Or | Ir.Xor), Ir.Imm 0, v -> `Value v
  | Ir.Sub, v, Ir.Imm 0 -> `Value v
  | Ir.Mul, v, Ir.Imm 1 | Ir.Mul, Ir.Imm 1, v -> `Value v
  | Ir.Mul, _, Ir.Imm 0 | Ir.Mul, Ir.Imm 0, _ -> `Value (Ir.Imm 0)
  | Ir.Div, v, Ir.Imm 1 -> `Value v
  | Ir.And, _, Ir.Imm 0 | Ir.And, Ir.Imm 0, _ -> `Value (Ir.Imm 0)
  | Ir.Sub, Ir.Reg x, Ir.Reg y when x = y -> `Value (Ir.Imm 0)
  | Ir.Xor, Ir.Reg x, Ir.Reg y when x = y -> `Value (Ir.Imm 0)
  | _ ->
    let a, b = normalize_bin op a b in
    `Op (op, a, b)

let addr_key_global label = ("G:" ^ label, 0)
let addr_key_slot slot = ("S:", slot)

(* Two memory accesses conflict unless they are provably disjoint.  We
   only prove disjointness for absolute addresses (static data). *)
let may_alias (a1, s1, _) a2 s2 =
  let range = function
    | Ir.Abs a -> Some (a, a)
    | Ir.Abs_sym _ | Ir.Base _ | Ir.Base_index _ -> None
  in
  match (range a1, range a2) with
  | Some (lo1, _), Some (lo2, _) ->
    let hi1 = lo1 + Insn.size_bytes s1 - 1 and hi2 = lo2 + Insn.size_bytes s2 - 1 in
    not (hi1 < lo2 || hi2 < lo1)
  | _ -> true

let run_block env (b : Ir.block) =
  let changed = ref false in
  let out = ref [] in
  let keep inst = out := inst :: !out in
  let define v =
    invalidate env v
  in
  let record_value v op =
    if op <> Ir.Reg v then env.values <- (v, op) :: env.values
  in
  List.iter
    (fun inst ->
      match Ir.map_inst_uses (subst env) inst with
      | Ir.Bin (op, dst, a, b) -> begin
        match simplify_bin op a b with
        | `Value op_val ->
          define dst;
          record_value dst op_val;
          keep (Ir.Mov (dst, op_val));
          changed := true
        | `Op (op, a, b) -> begin
          match List.assoc_opt (op, a, b) env.exprs with
          | Some prev when prev <> dst ->
            define dst;
            record_value dst (Ir.Reg prev);
            keep (Ir.Mov (dst, Ir.Reg prev));
            changed := true
          | _ ->
            define dst;
            (* an expression whose operands mention [dst] reads the
               pre-assignment value and must not become available *)
            if not (operand_mentions dst a || operand_mentions dst b) then
              env.exprs <- ((op, a, b), dst) :: env.exprs;
            keep (Ir.Bin (op, dst, a, b))
        end
      end
      | Ir.Mov (dst, src) as inst ->
        define dst;
        record_value dst src;
        keep inst
      | Ir.Global_addr (dst, label) -> begin
        match List.assoc_opt (addr_key_global label) env.addrs with
        | Some prev when prev <> dst ->
          define dst;
          record_value dst (Ir.Reg prev);
          keep (Ir.Mov (dst, Ir.Reg prev));
          changed := true
        | _ ->
          define dst;
          env.addrs <- (addr_key_global label, dst) :: env.addrs;
          keep (Ir.Global_addr (dst, label))
      end
      | Ir.Slot_addr (dst, slot) -> begin
        match List.assoc_opt (addr_key_slot slot) env.addrs with
        | Some prev when prev <> dst ->
          define dst;
          record_value dst (Ir.Reg prev);
          keep (Ir.Mov (dst, Ir.Reg prev));
          changed := true
        | _ ->
          define dst;
          env.addrs <- (addr_key_slot slot, dst) :: env.addrs;
          keep (Ir.Slot_addr (dst, slot))
      end
      | Ir.Load { dst; addr; size; sign; _ } as inst -> begin
        match List.assoc_opt (addr, size, sign) env.mem with
        | Some value ->
          (* redundant load: the value is already known *)
          define dst;
          record_value dst value;
          keep (Ir.Mov (dst, value));
          changed := true
        | None ->
          define dst;
          (* pointer-chasing loads ([v = ld \[v\]]) overwrite their own
             base; the address key would refer to the old value *)
          if not (address_mentions dst addr) then
            env.mem <- ((addr, size, sign), Ir.Reg dst) :: env.mem;
          keep inst
      end
      | Ir.Store { size; src; addr } as inst ->
        (* kill aliasing entries, then record the forwarded value for
           both signednesses only when the store writes a full word *)
        env.mem <- List.filter (fun (key, _) -> not (may_alias key addr size)) env.mem;
        if size = Insn.Word then
          env.mem <- ((addr, size, Insn.Signed), src) :: env.mem;
        keep inst
      | Ir.Call { dst; _ } as inst ->
        invalidate_memory env;
        (match dst with Some d -> define d | None -> ());
        keep inst)
    b.insts;
  b.insts <- List.rev !out;
  b.term <- Ir.map_term_uses (subst env) b.term;
  (* fold constant branches right away *)
  (match b.term with
  | Ir.Br { cond; src1 = Ir.Imm x; src2 = Ir.Imm y; ifso; ifnot } ->
    b.term <- Ir.Jmp (if Alu.eval_cond cond x y then ifso else ifnot);
    changed := true
  | _ -> ());
  !changed

let run (f : Ir.func) =
  let changed = ref false in
  List.iter
    (fun b -> if run_block (empty ()) b then changed := true)
    f.Ir.blocks;
  !changed
