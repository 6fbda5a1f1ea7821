(* Optimization pass driver.

   Mirrors the pass list the paper applies before load classification
   (Section 4): function inlining, constant propagation, copy
   propagation, redundant load elimination, loop-invariant code
   removal, and induction-variable strength reduction — plus the
   cleanup passes (CFG simplification, dead-code elimination) that keep
   the IR canonical between them. *)

module Ir = Elag_ir.Ir

type level = O0 | O1 | O2

(* The scalar passes, run in turn until each has run once since the
   last change: every pass reports exactly whether it changed [f], so
   [f] is then a fixpoint of all three.  At most 10 rounds. *)
let scalar_passes = [| Simplify_cfg.run; Local_opt.run; Dce.run |]

let scalar f =
  let n = Array.length scalar_passes in
  (* [quiet]: calls in a row that changed nothing *)
  let rec go calls quiet =
    if quiet < n && calls < 10 * n then
      go (calls + 1) (if scalar_passes.(calls mod n) f then 0 else quiet + 1)
  in
  go 0 0

(* Run [pass]; a scalar fixpoint follows only when it changed [f]. *)
let then_scalar f pass = if pass f then scalar f

let optimize_func level f =
  match level with
  | O0 -> ()
  | O1 -> scalar f
  | O2 ->
    scalar f;
    List.iter (then_scalar f) [ (fun f -> Licm.run f); Strength_reduce.run; Addr_promote.run ]

let optimize ?(level = O2) ?(inline_threshold = Inline.default_threshold)
    ?(unroll_factor = Unroll.default_factor) (p : Ir.program) =
  if level <> O0 then ignore (Inline.run ~threshold:inline_threshold p);
  List.iter (optimize_func level) p.Ir.funcs;
  if level = O2 then begin
    (* interprocedural round: with function summaries, loops containing
       calls to store-free functions still get their loads hoisted *)
    let summaries = Purity.analyze p in
    List.iter (fun f -> then_scalar f (Licm.run ~summaries)) p.Ir.funcs;
    if unroll_factor >= 2 then
      List.iter (fun f -> then_scalar f (Unroll.run ~factor:unroll_factor)) p.Ir.funcs
  end;
  p
