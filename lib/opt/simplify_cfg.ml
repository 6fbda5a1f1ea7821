(* Control-flow cleanup:
   - constant-condition branches become jumps;
   - branches with identical arms become jumps;
   - jumps to empty forwarding blocks are threaded;
   - unreachable blocks are deleted;
   - a block with a unique successor whose unique predecessor it is gets
     merged with it. *)

module Ir = Elag_ir.Ir
module Cfg = Elag_ir.Cfg

(* [fold_branch] and [retarget_term] return their argument itself when
   they leave it as it is, so [run] detects a change by physical
   inequality instead of a structural compare of every terminator. *)
let fold_branch (t : Ir.terminator) =
  match t with
  | Ir.Br { cond; src1 = Ir.Imm a; src2 = Ir.Imm b; ifso; ifnot } ->
    let taken =
      match cond with
      | Elag_isa.Insn.Eq -> a = b
      | Elag_isa.Insn.Ne -> a <> b
      | Elag_isa.Insn.Lt -> a < b
      | Elag_isa.Insn.Le -> a <= b
      | Elag_isa.Insn.Gt -> a > b
      | Elag_isa.Insn.Ge -> a >= b
    in
    Ir.Jmp (if taken then ifso else ifnot)
  | Ir.Br { ifso; ifnot; _ } when ifso = ifnot -> Ir.Jmp ifso
  | t -> t

(* Follow chains of empty blocks that only jump onward. *)
let thread_target f =
  let forward = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      match (b.insts, b.term) with
      | [], Ir.Jmp next when next <> b.label -> Hashtbl.replace forward b.label next
      | _ -> ())
    f.Ir.blocks;
  let rec chase seen label =
    if List.mem label seen then label
    else
      match Hashtbl.find_opt forward label with
      | Some next -> chase (label :: seen) next
      | None -> label
  in
  chase []

let retarget_term thread (t : Ir.terminator) =
  match t with
  | Ir.Jmp l ->
    let l' = thread l in
    if String.equal l' l then t else Ir.Jmp l'
  | Ir.Br b ->
    let ifso = thread b.ifso and ifnot = thread b.ifnot in
    if String.equal ifso b.ifso && String.equal ifnot b.ifnot then t
    else Ir.Br { b with ifso; ifnot }
  | Ir.Ret _ -> t

let rewrite_terms changed rewrite (f : Ir.func) =
  List.iter
    (fun (b : Ir.block) ->
      let t' = rewrite b.term in
      if t' != b.term then begin
        b.term <- t';
        changed := true
      end)
    f.Ir.blocks

let run (f : Ir.func) =
  let changed = ref false in
  (* 1. fold constant branches *)
  rewrite_terms changed fold_branch f;
  (* 2. thread forwarding blocks *)
  rewrite_terms changed (retarget_term (thread_target f)) f;
  (* 3. delete unreachable blocks *)
  let cfg = Cfg.of_func f in
  let reachable = List.filteri (fun i _ -> Cfg.reachable cfg i) f.Ir.blocks in
  if List.length reachable <> List.length f.Ir.blocks then begin
    f.Ir.blocks <- reachable;
    changed := true
  end;
  (* 4. merge straight-line pairs *)
  let cfg = Cfg.of_func f in
  let merged = Array.make (Cfg.length cfg) false in
  List.iteri
    (fun i (b : Ir.block) ->
      if not merged.(i) then
        match b.term with
        | Ir.Jmp next when next <> b.label -> begin
          let n = Cfg.index cfg next in
          match Cfg.preds cfg n with
          | [ single ] when single = i && n <> 0 ->
            let nb = Cfg.block cfg n in
            b.insts <- b.insts @ nb.Ir.insts;
            b.term <- nb.Ir.term;
            merged.(n) <- true;
            changed := true
          | _ -> ()
        end
        | _ -> ())
    f.Ir.blocks;
  if Array.mem true merged then
    f.Ir.blocks <- List.filteri (fun i _ -> not merged.(i)) f.Ir.blocks;
  !changed
