(* Collapse adjacent [t = op ...; v = t] pairs where [t] is a
   single-def single-use temporary, producing the compact two-address
   shapes ([v = add v, 1], [p = ld \[p+8\]]) that induction-variable
   detection and the paper's load-classification heuristics key on. *)

module Ir = Elag_ir.Ir

let run (f : Ir.func) =
  let counts = Use_counts.compute f in
  let changed = ref false in
  let collapsible t v =
    t <> v && Use_counts.use_count counts t = 1 && Use_counts.def_count counts t = 1
  in
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
  List.iter (fun (b : Ir.block) -> b.insts <- rewrite b.insts) f.Ir.blocks;
  !changed
