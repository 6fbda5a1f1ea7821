(* Dead-code elimination: removes pure instructions whose destination
   is not live at the point of definition, using block-level liveness
   refined instruction-by-instruction backwards. *)

module Ir = Elag_ir.Ir
module Cfg = Elag_ir.Cfg
module Liveness = Elag_ir.Liveness
module Bitset = Elag_ir.Bitset

(* Kill dead induction cycles: a register whose every use occurs in
   instructions that only define it (e.g. [v = v + 4] with no other
   use) keeps itself alive under plain liveness; remove those
   instructions explicitly. *)
let kill_self_cycles (f : Ir.func) =
  let self_uses = Bitset.create f.Ir.next_vreg in
  let other_uses = Bitset.create f.Ir.next_vreg in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun inst ->
          let defs = Ir.inst_defs inst in
          List.iter
            (fun u -> Bitset.add (if List.mem u defs then self_uses else other_uses) u)
            (Ir.inst_uses inst))
        b.Ir.insts;
      List.iter (Bitset.add other_uses) (Ir.term_uses b.Ir.term))
    f.Ir.blocks;
  let dead v =
    Bitset.mem self_uses v
    && not (Bitset.mem other_uses v)
    && not (List.mem v f.Ir.params)
  in
  let changed = ref false in
  List.iter
    (fun (b : Ir.block) ->
      b.Ir.insts <-
        List.filter
          (fun inst ->
            let remove =
              (not (Ir.has_side_effect inst))
              && (match Ir.inst_defs inst with [ d ] -> dead d | _ -> false)
            in
            if remove then changed := true;
            not remove)
          b.Ir.insts)
    f.Ir.blocks;
  !changed

let run (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let live = Liveness.compute cfg in
  let changed = ref false in
  List.iteri
    (fun i (b : Ir.block) ->
      let live_set = Bitset.copy (Liveness.live_out live i) in
      (* also live: uses of the terminator *)
      List.iter (Bitset.add live_set) (Ir.term_uses b.term);
      let kept =
        List.fold_left
          (fun acc inst ->
            let defs = Ir.inst_defs inst in
            let dead =
              (not (Ir.has_side_effect inst))
              && defs <> []
              && List.for_all (fun d -> not (Bitset.mem live_set d)) defs
            in
            if dead then begin
              changed := true;
              acc
            end
            else begin
              List.iter (Bitset.remove live_set) defs;
              List.iter (Bitset.add live_set) (Ir.inst_uses inst);
              inst :: acc
            end)
          []
          (List.rev b.insts)
      in
      b.insts <- kept)
    f.Ir.blocks;
  let killed = kill_self_cycles f in
  !changed || killed
