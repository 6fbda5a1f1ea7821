(* The scalar propagation pass.  One call counts each virtual
   register's uses and definitions over the whole function once, then:

   1. Collapses adjacent [t = op ...; v = t] pairs where [t] is a
      single-definition, single-use temporary, producing the compact
      two-address shapes ([v = add v, 1], [p = ld \[p+8\]]) that
      induction-variable detection and the paper's load-classification
      heuristics key on.  A collapse deletes [t] outright, so the
      counts of every other register stay exact.

   2. Collects the function-wide values: [v] defined exactly once as
      [v = const], or as [v = w] with [w] itself defined once.  Without
      SSA this is sound only if that single definition dominates every
      use, so neither register may be live into the entry block (MiniC
      accepts reads of uninitialized locals); parameters are defined
      on entry.

   3. Walks each block: constant folding and propagation, copy
      propagation, common-subexpression elimination on pure operations,
      store-to-load forwarding, redundant-load elimination, and folding
      of constant-condition branches.  It is the optimizer's one
      constant folder: values and conditions both go through {!Alu},
      the emulator's 32-bit semantics.

   A use takes its function-wide value first, else its known value in
   the block.  The block is walked forward while maintaining:
   - [values]: the current known value (constant or copy source) of
     each virtual register;
   - [exprs]: the register holding each available pure operation,
     data-label address or frame-slot address;
   - [mem]: available memory values keyed by canonical address+size.

   Invalidations: redefining [v] drops every table entry mentioning
   [v]; stores and calls drop memory entries (a store then records its
   own forwarding entry).

   [run] reports a change exactly when some block's instructions or
   terminator differ from what they were before the call. *)

module Ir = Elag_ir.Ir
module Cfg = Elag_ir.Cfg
module Liveness = Elag_ir.Liveness
module Bitset = Elag_ir.Bitset

module Insn = Elag_isa.Insn
module Alu = Elag_isa.Alu

(* A value a register can hold and another register can reuse. *)
type expr =
  | Op of Ir.binop * Ir.operand * Ir.operand
  | Global of string  (* [Global_addr] of a data label *)
  | Slot of int  (* [Slot_addr] of a frame slot *)

type env =
  { mutable values : (Ir.vreg * Ir.operand) list
  ; mutable exprs : (expr * Ir.vreg) list
  ; mutable mem : ((Ir.address * Insn.mem_size * Insn.signedness) * Ir.operand) list }

let empty () = { values = []; exprs = []; mem = [] }

let operand_mentions v = function Ir.Reg w -> w = v | Ir.Imm _ -> false

let expr_mentions v = function
  | Op (_, a, b) -> operand_mentions v a || operand_mentions v b
  | Global _ | Slot _ -> false

let address_mentions v = function
  | Ir.Base (b, _) -> b = v
  | Ir.Base_index (b, i) -> b = v || i = v
  | Ir.Abs _ | Ir.Abs_sym _ -> false

(* Drop every table entry that mentions [v]. *)
let invalidate env v =
  env.values <-
    List.filter (fun (d, op) -> d <> v && not (operand_mentions v op)) env.values;
  env.exprs <- List.filter (fun (e, d) -> d <> v && not (expr_mentions v e)) env.exprs;
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

(* [global v] is [v]'s function-wide value, or [Reg v]. *)
let run_block ~global env (b : Ir.block) =
  (* The operand a use of [v] stands for. *)
  let subst v =
    match global v with
    | Ir.Reg w when w = v -> (
      match List.assoc_opt v env.values with Some op -> op | None -> Ir.Reg v)
    | op -> op
  in
  let out = ref [] in
  let keep inst = out := inst :: !out in
  let define = invalidate env in
  (* [dst = op], with [op] now [dst]'s known value *)
  let copy dst op =
    define dst;
    if op <> Ir.Reg dst then env.values <- (dst, op) :: env.values;
    keep (Ir.Mov (dst, op))
  in
  (* [inst] sets [dst] to [e]: reuse a register already holding [e],
     else keep [inst] and make [e] available in [dst] *)
  let compute dst e inst =
    match List.assoc_opt e env.exprs with
    | Some prev when prev <> dst -> copy dst (Ir.Reg prev)
    | _ ->
      define dst;
      (* an expression whose operands mention [dst] reads the
         pre-assignment value and must not become available *)
      if not (expr_mentions dst e) then env.exprs <- (e, dst) :: env.exprs;
      keep inst
  in
  List.iter
    (fun inst ->
      match Ir.map_inst_uses subst inst with
      | Ir.Bin (op, dst, a, b) -> begin
        match simplify_bin op a b with
        | `Value op_val -> copy dst op_val
        | `Op (op, a, b) -> compute dst (Op (op, a, b)) (Ir.Bin (op, dst, a, b))
      end
      | Ir.Mov (dst, src) -> copy dst src
      | Ir.Global_addr (dst, label) as inst -> compute dst (Global label) inst
      | Ir.Slot_addr (dst, slot) as inst -> compute dst (Slot slot) inst
      | Ir.Load { dst; addr; size; sign; _ } as inst -> begin
        match List.assoc_opt (addr, size, sign) env.mem with
        | Some value -> copy dst value (* redundant load: the value is already known *)
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
  (* fold constant branches right away *)
  b.term <-
    (match Ir.map_term_uses subst b.term with
    | Ir.Br { cond; src1 = Ir.Imm x; src2 = Ir.Imm y; ifso; ifnot } ->
      Ir.Jmp (if Alu.eval_cond cond x y then ifso else ifnot)
    | t -> t)

(* Use and definition counts, indexed by vreg.  Parameters count as
   defined once on entry. *)
let count (f : Ir.func) =
  let uses = Array.make f.next_vreg 0 and defs = Array.make f.next_vreg 0 in
  let bump counts v = counts.(v) <- counts.(v) + 1 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun inst ->
          List.iter (bump uses) (Ir.inst_uses inst);
          List.iter (bump defs) (Ir.inst_defs inst))
        b.insts;
      List.iter (bump uses) (Ir.term_uses b.term))
    f.blocks;
  List.iter (bump defs) f.params;
  (uses, defs)

(* Step 1: retarget [t = op ...] to [v] and drop [v = t]. *)
let collapse ~uses ~defs (b : Ir.block) =
  let collapsible t v = t <> v && uses.(t) = 1 && defs.(t) = 1 in
  let rec rewrite = function
    | inst :: Ir.Mov (v, Ir.Reg t) :: rest when List.mem t (Ir.inst_defs inst) -> begin
      let retargeted =
        match inst with
        | Ir.Bin (op, d, a, b) when d = t && collapsible t v -> Some (Ir.Bin (op, v, a, b))
        | Ir.Load l when l.dst = t && collapsible t v -> Some (Ir.Load { l with dst = v })
        | Ir.Global_addr (d, lbl) when d = t && collapsible t v ->
          Some (Ir.Global_addr (v, lbl))
        | Ir.Slot_addr (d, s) when d = t && collapsible t v -> Some (Ir.Slot_addr (v, s))
        | _ -> None
      in
      match retargeted with
      | Some inst' -> inst' :: rewrite rest
      | None -> inst :: rewrite (Ir.Mov (v, Ir.Reg t) :: rest)
    end
    | inst :: rest -> inst :: rewrite rest
    | [] -> []
  in
  b.insts <- rewrite b.insts

(* Step 2: the function-wide value of each single-definition constant
   or copy, with copy chains [v -> w -> x] resolved.  The definition of
   a register not live into the entry block lies on every path from the
   entry to its uses, so it dominates them; a parameter is defined on
   entry.  Liveness is computed only once a candidate needs it. *)
let global_values ~defs (f : Ir.func) =
  let known = Array.make f.next_vreg None in
  let live = lazy (Liveness.live_in (Liveness.compute (Cfg.of_func f)) 0) in
  let single v =
    defs.(v) = 1 && (List.mem v f.params || not (Bitset.mem (Lazy.force live) v))
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (function
          | Ir.Mov (v, (Ir.Imm _ as c)) when single v -> known.(v) <- Some c
          | Ir.Mov (v, (Ir.Reg w as c)) when single v && single w -> known.(v) <- Some c
          | _ -> ())
        b.insts)
    f.blocks;
  let rec resolve seen v =
    match known.(v) with
    | Some (Ir.Reg w) when not (List.mem w seen) -> resolve (v :: seen) w
    | Some (Ir.Imm _ as c) -> c
    | _ -> Ir.Reg v
  in
  resolve []

let run (f : Ir.func) =
  let before = List.map (fun (b : Ir.block) -> (b.insts, b.term)) f.blocks in
  let uses, defs = count f in
  List.iter (collapse ~uses ~defs) f.blocks;
  let global = global_values ~defs f in
  List.iter (fun b -> run_block ~global (empty ()) b) f.blocks;
  List.exists2 (fun (b : Ir.block) old -> (b.insts, b.term) <> old) f.blocks before
