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

(* The Section 4 rule for one region, rewriting its loads in place:
   loads whose address is [predictable] get [Ld_p]; of the rest, the
   register+offset loads off the base register with the most of them
   get [Ld_e], and everything else [Ld_n].  Between equal groups the
   first one [Hashtbl.fold] meets wins; [~random:false] keeps that
   order fixed under OCAMLRUNPARAM=R. *)
let classify_region ~predictable (blocks : Ir.block list) =
  let groups = Hashtbl.create ~random:false 8 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (function
          | Ir.Load { addr = Ir.Base (base, _) as addr; _ } when not (predictable addr) ->
            Hashtbl.replace groups base
              (1 + Option.value (Hashtbl.find_opt groups base) ~default:0)
          | _ -> ())
        b.Ir.insts)
    blocks;
  let best =
    Hashtbl.fold
      (fun b n acc -> match acc with Some (_, bn) when bn >= n -> acc | _ -> Some (b, n))
      groups None
  in
  let spec_of addr =
    if predictable addr then Insn.Ld_p
    else
      match (addr, best) with
      | Ir.Base (b, _), Some (bb, _) when b = bb -> Insn.Ld_e
      | _ -> Insn.Ld_n
  in
  List.iter
    (fun (b : Ir.block) ->
      b.Ir.insts <-
        List.map
          (function Ir.Load l -> Ir.Load { l with spec = spec_of l.addr } | inst -> inst)
          b.Ir.insts)
    blocks

let run_func ?summaries (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let loops = Loops.compute cfg (Dominators.compute cfg) in
  let innermost = Array.init (Cfg.length cfg) (Loops.innermost_containing loops) in
  let reachable = List.filter (Cfg.reachable cfg) (List.init (Cfg.length cfg) Fun.id) in
  let blocks = List.map (Cfg.block cfg) in
  (* Cyclic: per loop, inner-first.  A loop's region is the set of its
     blocks whose innermost loop it is; its S_load spans the whole
     body, inner loops included. *)
  List.iter
    (fun (loop : Loops.loop) ->
      let body = List.filter (Loops.mem loop) reachable in
      let s_load =
        s_load_of_insts ?summaries (List.concat_map (fun (b : Ir.block) -> b.Ir.insts) (blocks body))
      in
      let region =
        List.filter
          (fun i ->
            match innermost.(i) with
            | Some l -> l.Loops.header = loop.Loops.header
            | None -> false)
          reachable
      in
      classify_region
        ~predictable:(fun addr -> not (List.exists (fun v -> VS.mem v s_load) (Ir.address_vregs addr)))
        (blocks region))
    loops;
  (* Acyclic: blocks in no loop. *)
  classify_region
    ~predictable:(function Ir.Abs _ | Ir.Abs_sym _ -> true | Ir.Base _ | Ir.Base_index _ -> false)
    (blocks (List.filter (fun i -> Option.is_none innermost.(i)) reachable))

let run (p : Ir.program) =
  let summaries = Elag_opt.Purity.analyze p in
  List.iter (run_func ~summaries) p.Ir.funcs
