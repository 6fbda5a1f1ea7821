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
      use of [v]; a read of [v] before its definition (MiniC accepts
      reads of uninitialized locals) sees the value anyway.

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
   - [exprs]: available pure expressions keyed by (op, operands);
   - [mem]: available memory values keyed by canonical address+size.

   Invalidations: redefining [v] drops every table entry mentioning
   [v]; stores and calls drop memory entries (a store then records its
   own forwarding entry).

   Collapses, function-wide substitutions, folds, CSE hits and
   forwarded loads count as changes; block-local substitutions do not
   (DESIGN §14, "Known gap"). *)

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

(* [global v] is [v]'s function-wide value, or [Reg v]. *)
let run_block ~global env (b : Ir.block) =
  let changed = ref false in
  (* The operand a use of [v] stands for. *)
  let subst v =
    match global v with
    | Ir.Reg w when w = v -> (
      match List.assoc_opt v env.values with Some op -> op | None -> Ir.Reg v)
    | op ->
      changed := true;
      op
  in
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
      match Ir.map_inst_uses subst inst with
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
  b.term <- Ir.map_term_uses subst b.term;
  (* fold constant branches right away *)
  (match b.term with
  | Ir.Br { cond; src1 = Ir.Imm x; src2 = Ir.Imm y; ifso; ifnot } ->
    b.term <- Ir.Jmp (if Alu.eval_cond cond x y then ifso else ifnot);
    changed := true
  | _ -> ());
  !changed

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
  let changed = ref false in
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
      | Some inst' ->
        changed := true;
        inst' :: rewrite rest
      | None -> inst :: rewrite (Ir.Mov (v, Ir.Reg t) :: rest)
    end
    | inst :: rest -> inst :: rewrite rest
    | [] -> []
  in
  b.insts <- rewrite b.insts;
  !changed

(* Step 2: the function-wide value of each single-definition constant
   or copy, with copy chains [v -> w -> x] resolved. *)
let global_values ~defs (f : Ir.func) =
  let known = Array.make f.next_vreg None in
  let single v = defs.(v) = 1 in
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
  let uses, defs = count f in
  let changed = ref false in
  List.iter (fun b -> if collapse ~uses ~defs b then changed := true) f.Ir.blocks;
  let global = global_values ~defs f in
  List.iter
    (fun b -> if run_block ~global (empty ()) b then changed := true)
    f.Ir.blocks;
  !changed
