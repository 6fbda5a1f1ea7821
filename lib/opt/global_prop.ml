(* Whole-function constant and copy propagation restricted to
   single-definition virtual registers, where it is sound without SSA:
   if [v] is defined exactly once as [v = const] or [v = w] with [w]
   itself single-definition, every use of [v] can be substituted. *)

module Ir = Elag_ir.Ir

let run (f : Ir.func) =
  let counts = Use_counts.compute f in
  let single v = Use_counts.def_count counts v = 1 in
  (* Collect substitutions from single-def movs. *)
  let subst_tbl = Hashtbl.create 32 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun inst ->
          match inst with
          | Ir.Mov (v, Ir.Imm n) when single v -> Hashtbl.replace subst_tbl v (Ir.Imm n)
          | Ir.Mov (v, Ir.Reg w) when single v && single w ->
            Hashtbl.replace subst_tbl v (Ir.Reg w)
          | _ -> ())
        b.insts)
    f.Ir.blocks;
  if Hashtbl.length subst_tbl = 0 then false
  else begin
    (* Resolve chains v -> w -> x. *)
    let rec resolve seen v =
      match Hashtbl.find_opt subst_tbl v with
      | Some (Ir.Reg w) when not (List.mem w seen) -> resolve (v :: seen) w
      | Some (Ir.Imm _ as c) -> c
      | _ -> Ir.Reg v
    in
    let changed = ref false in
    List.iter
      (fun (b : Ir.block) ->
        b.insts <-
          List.map
            (fun inst ->
              let inst' = Ir.map_inst_uses (resolve []) inst in
              if inst' <> inst then changed := true;
              inst')
            b.insts;
        let t' = Ir.map_term_uses (resolve []) b.term in
        if t' <> b.term then begin
          b.term <- t';
          changed := true
        end)
      f.Ir.blocks;
    !changed
  end
