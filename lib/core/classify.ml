(* Compiler-directed load classification (the paper's Section 4).

   Every static load is assigned one of the three opcode specifiers:

   - [Ld_p] (predict): arithmetic-dependent loads in loops, and loads
     from absolute locations in acyclic code — their addresses are
     constants or strides that the table-based predictor captures;
   - [Ld_e] (early-calculate): the largest base-register group of
     load-dependent, register+offset loads — pointer-chasing chains
     whose base register is worth binding to R_addr;
   - [Ld_n] (neither): everything else, so that neither the prediction
     table nor R_addr is polluted.

   Cyclic code is analyzed per natural loop, inner loops first; a load
   is classified by its innermost enclosing loop.  The S_load set is
   the fixpoint closure of load destinations through arithmetic
   operations, exactly as in the paper. *)

module Ir = Elag_ir.Ir
module Cfg = Elag_ir.Cfg
module Dominators = Elag_ir.Dominators
module Loops = Elag_ir.Loops
module Insn = Elag_isa.Insn

module VS = Set.Make (Int)

let with_spec spec = function
  | Ir.Load l -> Ir.Load { l with spec }
  | inst -> inst



(* Address registers of a load/store. *)
let base_vreg = function
  | Ir.Base (b, _) -> Some b
  | Ir.Base_index (b, _) -> Some b
  | Ir.Abs _ | Ir.Abs_sym _ -> None

let is_reg_offset = function Ir.Base _ -> true | _ -> false
let is_absolute = function Ir.Abs _ | Ir.Abs_sym _ -> true | _ -> false

(* Step 1 + 2 of the cyclic heuristic: destinations of loads, closed
   over arithmetic instructions.  Call results are treated as
   load-derived — the conservative choice for any call not removed by
   inlining — unless interprocedural summaries prove the callee
   returns pure arithmetic (the paper's future-work "more aggressive
   analysis"). *)
let s_load_of_insts ?summaries insts =
  let call_returns_loaded callee =
    match summaries with
    | Some t -> (Elag_opt.Purity.find t callee).Elag_opt.Purity.returns_loaded
    | None -> true
  in
  let s = ref VS.empty in
  List.iter
    (fun inst ->
      match inst with
      | Ir.Load { dst; _ } -> s := VS.add dst !s
      | Ir.Call { dst = Some d; callee; _ } ->
        if call_returns_loaded callee then s := VS.add d !s
      | _ -> ())
    insts;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun inst ->
        match inst with
        | Ir.Bin (_, dst, _, _) | Ir.Mov (dst, _) ->
          if
            (not (VS.mem dst !s))
            && List.exists (fun u -> VS.mem u !s) (Ir.inst_uses inst)
          then begin
            s := VS.add dst !s;
            changed := true
          end
        | _ -> ())
      insts
  done;
  !s

(* Classify the loads of one region.  [region_loads] are the loads to
   assign (those whose innermost context this region is);
   [s_load] decides load-dependence.  Returns per-load specs keyed by
   physical instruction identity order (we rebuild lists in place). *)
type decision = (Ir.inst * Insn.load_spec) list

let decide_cyclic ~s_load (region_loads : Ir.inst list) : decision =
  let load_dependent inst =
    match inst with
    | Ir.Load { addr; _ } ->
      List.exists (fun v -> VS.mem v s_load) (Ir.address_vregs addr)
    | _ -> false
  in
  let dependent, arithmetic = List.partition load_dependent region_loads in
  (* Group register+offset load-dependent loads by base register. *)
  let groups = Hashtbl.create 8 in
  List.iter
    (fun inst ->
      match inst with
      | Ir.Load { addr; _ } when is_reg_offset addr -> begin
        match base_vreg addr with
        | Some b ->
          Hashtbl.replace groups b (1 + Option.value (Hashtbl.find_opt groups b) ~default:0)
        | None -> ()
      end
      | _ -> ())
    dependent;
  let best =
    Hashtbl.fold
      (fun b n acc ->
        match acc with
        | Some (_, bn) when bn >= n -> acc
        | _ -> Some (b, n))
      groups None
  in
  let spec_of inst =
    match inst with
    | Ir.Load { addr; _ } -> begin
      match (best, base_vreg addr) with
      | Some (bb, _), Some b when b = bb && is_reg_offset addr -> Insn.Ld_e
      | _ -> Insn.Ld_n
    end
    | _ -> Insn.Ld_n
  in
  List.map (fun i -> (i, spec_of i)) dependent
  @ List.map (fun i -> (i, Insn.Ld_p)) arithmetic

let decide_acyclic (region_loads : Ir.inst list) : decision =
  let absolute, rest =
    List.partition
      (function Ir.Load { addr; _ } -> is_absolute addr | _ -> false)
      region_loads
  in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun inst ->
      match inst with
      | Ir.Load { addr; _ } when is_reg_offset addr -> begin
        match base_vreg addr with
        | Some b ->
          Hashtbl.replace groups b (1 + Option.value (Hashtbl.find_opt groups b) ~default:0)
        | None -> ()
      end
      | _ -> ())
    rest;
  let best =
    Hashtbl.fold
      (fun b n acc ->
        match acc with Some (_, bn) when bn >= n -> acc | _ -> Some (b, n))
      groups None
  in
  let spec_of inst =
    match inst with
    | Ir.Load { addr; _ } -> begin
      match (best, base_vreg addr) with
      | Some (bb, _), Some b when b = bb && is_reg_offset addr -> Insn.Ld_e
      | _ -> Insn.Ld_n
    end
    | _ -> Insn.Ld_n
  in
  List.map (fun i -> (i, Insn.Ld_p)) absolute
  @ List.map (fun i -> (i, spec_of i)) rest

(* Apply a decision in place by rebuilding instruction lists. *)
let apply_decision (f : Ir.func) (decision : decision) =
  List.iter
    (fun (b : Ir.block) ->
      b.Ir.insts <-
        List.map
          (fun inst ->
            match List.find_opt (fun (i, _) -> i == inst) decision with
            | Some (_, spec) -> with_spec spec inst
            | None -> inst)
          b.Ir.insts)
    f.Ir.blocks

let loads_of_blocks cfg indices =
  List.concat_map
    (fun i ->
      List.filter (function Ir.Load _ -> true | _ -> false) (Cfg.block cfg i).Ir.insts)
    indices

let run_func ?summaries (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let dom = Dominators.compute cfg in
  let loops = Loops.compute cfg dom in
  (* innermost loop per block: first match in the inner-first list *)
  let innermost = Array.init (Cfg.length cfg) (Loops.innermost_containing loops) in
  let reachable = List.filter (Cfg.reachable cfg) (List.init (Cfg.length cfg) Fun.id) in
  let decisions = ref [] in
  (* Cyclic: per loop, inner-first.  A loop's own region is the set of
     its blocks whose innermost loop it is. *)
  List.iter
    (fun (loop : Loops.loop) ->
      let region =
        List.filter
          (fun i ->
            match innermost.(i) with
            | Some l -> l.Loops.header = loop.Loops.header
            | None -> false)
          reachable
      in
      let body = List.filter (Loops.mem loop) reachable in
      let body_insts = List.concat_map (fun i -> (Cfg.block cfg i).Ir.insts) body in
      let s_load = s_load_of_insts ?summaries body_insts in
      let region_loads = loads_of_blocks cfg region in
      decisions := decide_cyclic ~s_load region_loads @ !decisions)
    loops;
  (* Acyclic: blocks in no loop. *)
  let acyclic = List.filter (fun i -> Option.is_none innermost.(i)) reachable in
  let acyclic_loads = loads_of_blocks cfg acyclic in
  decisions := decide_acyclic acyclic_loads @ !decisions;
  apply_decision f !decisions

let run ?(interprocedural = true) (p : Ir.program) =
  let summaries = if interprocedural then Some (Elag_opt.Purity.analyze p) else None in
  List.iter (fun f -> run_func ?summaries f) p.Ir.funcs

(* Reset every load to the plain specifier (the no-compiler-support
   baseline). *)
let clear_func (f : Ir.func) =
  List.iter
    (fun (b : Ir.block) ->
      b.Ir.insts <- List.map (with_spec Insn.Ld_n) b.Ir.insts)
    f.Ir.blocks

let clear (p : Ir.program) = List.iter clear_func p.Ir.funcs
