(* Optimization pass driver.

   Mirrors the pass list the paper applies before load classification
   (Section 4): function inlining, constant propagation, copy
   propagation, redundant load elimination, loop-invariant code
   removal, and induction-variable strength reduction — plus the
   cleanup passes (CFG simplification, dead-code elimination) that keep
   the IR canonical between them. *)

module Ir = Elag_ir.Ir

type level = O0 | O1 | O2

(* One scalar round: cheap passes to a local fixpoint. *)
let scalar_round f =
  let changed = ref false in
  let note c = if c then changed := true in
  note (Simplify_cfg.run f);
  note (Local_opt.run f);
  note (Dce.run f);
  !changed

(* Repeat [pass] until it reports no change, at most 10 times. *)
let fixpoint pass f =
  let rec go fuel = if fuel > 0 && pass f then go (fuel - 1) in
  go 10

let optimize_func ?(level = O2) (f : Ir.func) =
  match level with
  | O0 -> ()
  | O1 -> fixpoint scalar_round f
  | O2 ->
    fixpoint scalar_round f;
    ignore (Licm.run f);
    fixpoint scalar_round f;
    ignore (Strength_reduce.run f);
    fixpoint scalar_round f;
    ignore (Addr_promote.run f);
    fixpoint scalar_round f

let optimize ?(level = O2) ?(inline_threshold = Inline.default_threshold)
    ?(unroll_factor = Unroll.default_factor) (p : Ir.program) =
  if level <> O0 then ignore (Inline.run ~threshold:inline_threshold p);
  List.iter (optimize_func ~level) p.Ir.funcs;
  if level = O2 then begin
    (* interprocedural round: with function summaries, loops containing
       calls to store-free functions still get their loads hoisted *)
    let summaries = Purity.analyze p in
    List.iter
      (fun f ->
        if Licm.run ~summaries f then fixpoint scalar_round f)
      p.Ir.funcs;
    if unroll_factor >= 2 then
      List.iter
        (fun f ->
          if Unroll.run ~factor:unroll_factor f then fixpoint scalar_round f)
        p.Ir.funcs
  end;
  p
