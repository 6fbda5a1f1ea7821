(* Whole-function virtual-register use and definition counts, shared by
   several passes. *)

module Ir = Elag_ir.Ir

type t =
  { uses : (Ir.vreg, int) Hashtbl.t
  ; defs : (Ir.vreg, int) Hashtbl.t }

let bump tbl v = Hashtbl.replace tbl v (1 + Option.value (Hashtbl.find_opt tbl v) ~default:0)

let compute (f : Ir.func) =
  let t = { uses = Hashtbl.create 64; defs = Hashtbl.create 64 } in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun inst ->
          List.iter (bump t.uses) (Ir.inst_uses inst);
          List.iter (bump t.defs) (Ir.inst_defs inst))
        b.insts;
      List.iter (bump t.uses) (Ir.term_uses b.term))
    f.blocks;
  (* Parameters count as defined once on entry. *)
  List.iter (bump t.defs) f.params;
  t

let use_count t v = Option.value (Hashtbl.find_opt t.uses v) ~default:0
let def_count t v = Option.value (Hashtbl.find_opt t.defs v) ~default:0
