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
    let subst_operand = function
      | Ir.Reg v -> resolve [] v
      | Ir.Imm _ as op -> op
    in
    let subst_reg_addr addr =
      match addr with
      | Ir.Base (b, d) -> begin
        match resolve [] b with
        | Ir.Reg w -> Ir.Base (w, d)
        | Ir.Imm n -> Ir.Abs (n + d)
      end
      | Ir.Base_index (b, i) -> begin
        match (resolve [] b, resolve [] i) with
        | Ir.Reg b, Ir.Reg i -> Ir.Base_index (b, i)
        | Ir.Reg b, Ir.Imm n | Ir.Imm n, Ir.Reg b -> Ir.Base (b, n)
        | Ir.Imm a, Ir.Imm b -> Ir.Abs (a + b)
      end
      | Ir.Abs _ | Ir.Abs_sym _ -> addr
    in
    let changed = ref false in
    let rewrite_inst inst =
      let inst' =
        match inst with
        | Ir.Bin (op, d, a, b) -> Ir.Bin (op, d, subst_operand a, subst_operand b)
        | Ir.Mov (d, a) -> Ir.Mov (d, subst_operand a)
        | Ir.Load l -> Ir.Load { l with addr = subst_reg_addr l.addr }
        | Ir.Store s ->
          Ir.Store { s with src = subst_operand s.src; addr = subst_reg_addr s.addr }
        | Ir.Call c -> Ir.Call { c with args = List.map subst_operand c.args }
        | (Ir.Global_addr _ | Ir.Slot_addr _) as i -> i
      in
      if inst' <> inst then changed := true;
      inst'
    in
    List.iter
      (fun (b : Ir.block) ->
        b.insts <- List.map rewrite_inst b.insts;
        let t' = Ir.map_term_uses ~operand:(resolve []) b.term in
        if t' <> b.term then begin
          b.term <- t';
          changed := true
        end)
      f.Ir.blocks;
    !changed
  end
