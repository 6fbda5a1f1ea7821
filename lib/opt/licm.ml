(* Loop-invariant code motion.

   For every natural loop (inner-first) a preheader is created and
   invariant instructions are hoisted into it.  An instruction is
   hoisted when:
   - it is pure (or a load, if the whole loop is free of stores and
     calls — this doubles as cross-iteration redundant-load
     elimination, one of the passes the paper's heuristics assume);
   - every virtual register it reads has no definition inside the loop;
   - its destination has exactly one definition inside the loop;
   - its destination is not live on entry to the loop header (no use
     before the definition inside the loop);
   - its block dominates every latch (it executes on every iteration).  *)

module Ir = Elag_ir.Ir
module Cfg = Elag_ir.Cfg
module Dominators = Elag_ir.Dominators
module Loops = Elag_ir.Loops
module Liveness = Elag_ir.Liveness
module Bitset = Elag_ir.Bitset

(* Reuse the header's single outside predecessor as the preheader when
   it unconditionally jumps to the header. *)
let existing_preheader (loop : Loops.loop) =
  let cfg = loop.Loops.cfg in
  match List.filter (fun p -> not (Loops.mem loop p)) (Cfg.preds cfg loop.Loops.header) with
  | [ single ] ->
    let b = Cfg.block cfg single in
    (match b.Ir.term with Ir.Jmp _ -> Some b | _ -> None)
  | _ -> None

let rec insert_before blocks label pre =
  match blocks with
  | [] -> [ pre ]
  | b :: rest when b.Ir.label = label -> pre :: b :: rest
  | b :: rest -> b :: insert_before rest label pre

let make_preheader (f : Ir.func) (loop : Loops.loop) =
  match existing_preheader loop with
  | Some b -> b
  | None ->
    let header = Cfg.label loop.Loops.cfg loop.Loops.header in
    let label = Ir.fresh_label f "preheader" in
    let pre = { Ir.label; insts = []; term = Ir.Jmp header } in
    let retarget l = if l = header then label else l in
    List.iteri
      (fun i (b : Ir.block) ->
        if not (Loops.mem loop i) then b.Ir.term <- Ir.map_term_labels retarget b.Ir.term)
      f.Ir.blocks;
    (* keep entry block first: if the header was the entry, the
       preheader becomes the new entry *)
    if loop.Loops.header = 0 then f.Ir.blocks <- pre :: f.Ir.blocks
    else f.Ir.blocks <- insert_before f.Ir.blocks header pre;
    pre

(* def counts inside the loop *)
let loop_def_counts (loop : Loops.loop) =
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun i ->
      let b = Cfg.block loop.Loops.cfg i in
      List.iter
        (fun inst ->
          List.iter
            (fun d ->
              Hashtbl.replace tbl d (1 + Option.value (Hashtbl.find_opt tbl d) ~default:0))
            (Ir.inst_defs inst))
        b.Ir.insts)
    loop.Loops.body;
  tbl

let loop_has_memory_clobber ?summaries (loop : Loops.loop) =
  Array.exists
    (fun i ->
      let b = Cfg.block loop.Loops.cfg i in
      List.exists
        (function
          | Ir.Store _ -> true
          | Ir.Call { callee; _ } -> begin
            (* with interprocedural summaries, calls to functions that
               never store do not clobber memory *)
            match summaries with
            | Some t -> (Purity.find t callee).Purity.writes_memory
            | None -> true
          end
          | _ -> false)
        b.Ir.insts)
    loop.Loops.body

(* The loop is analysed once and its instructions hoisted one at a
   time, rescanning from the start after each hoist.  The analysis
   stays exact for the remaining candidates once the hoisted
   instruction's def is dropped from [def_counts]:
   - [live_at_header] changes only in the hoisted dst and its uses; a
     candidate's dst has exactly one def in the loop, so it is neither
     (the hoisted dst has none left, its uses never had one);
   - dominance among body blocks is unchanged by adding a preheader;
   - [memory_clobbered] is unchanged, since only pure instructions and
     loads move, never stores or calls.
   The preheader made for the first hoist is the one every later hoist
   would find again, so it is reused.  Liveness and dominators, the
   costly checks, are computed when a candidate first reaches them:
   every hoisted instruction passed both, so that is before the first
   hoist, and a loop with nothing to hoist mostly needs neither. *)
let run_loop ?summaries (f : Ir.func) (loop : Loops.loop) =
  let cfg = Cfg.of_func f in
  match Loops.rebase cfg loop with
  | None -> false
  | Some loop ->
    let def_counts = loop_def_counts loop in
    let defined_in_loop v = Hashtbl.mem def_counts v in
    let single_def_in_loop v = Hashtbl.find_opt def_counts v = Some 1 in
    let live_at_header =
      lazy (Liveness.live_in (Liveness.compute cfg) loop.Loops.header)
    in
    let memory_clobbered = loop_has_memory_clobber ?summaries loop in
    let dom = lazy (Dominators.compute cfg) in
    let dominates_latches i =
      List.for_all
        (fun latch -> Dominators.dominates (Lazy.force dom) i latch)
        loop.Loops.back_edges
    in
    let hoistable i inst =
      let pure =
        match inst with
        | Ir.Bin _ | Ir.Mov _ | Ir.Global_addr _ | Ir.Slot_addr _ -> true
        | Ir.Load _ -> not memory_clobbered
        | Ir.Store _ | Ir.Call _ -> false
      in
      pure
      && (match Ir.inst_defs inst with
         | [ d ] ->
           single_def_in_loop d
           && List.for_all (fun u -> not (defined_in_loop u)) (Ir.inst_uses inst)
           && not (Bitset.mem (Lazy.force live_at_header) d)
         | _ -> false)
      && dominates_latches i
    in
    (* the first hoistable instruction in body order, if any *)
    let next () =
      Array.fold_left
        (fun found i ->
          match found with
          | Some _ -> found
          | None ->
            let b = Cfg.block cfg i in
            Option.map (fun inst -> (b, inst)) (List.find_opt (hoistable i) b.Ir.insts))
        None loop.Loops.body
    in
    let preheader = lazy (make_preheader f loop) in
    let rec hoist changed =
      match next () with
      | None -> changed
      | Some (b, inst) ->
        b.Ir.insts <- List.filter (fun i -> i != inst) b.Ir.insts;
        List.iter (Hashtbl.remove def_counts) (Ir.inst_defs inst);
        let pre = Lazy.force preheader in
        pre.Ir.insts <- pre.Ir.insts @ [ inst ];
        hoist true
    in
    hoist false

let run ?summaries (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let dom = Dominators.compute cfg in
  let loops = Loops.compute cfg dom in
  List.fold_left (fun acc loop -> run_loop ?summaries f loop || acc) false loops
