(* Tests for the IR analyses: CFG construction, dominators, natural
   loops and liveness, over hand-built functions. *)

module Ir = Elag_ir.Ir
module Cfg = Elag_ir.Cfg
module Dominators = Elag_ir.Dominators
module Loops = Elag_ir.Loops
module Liveness = Elag_ir.Liveness
module Insn = Elag_isa.Insn

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mkfunc blocks =
  { Ir.name = "f"; params = []; blocks; slots = []; next_vreg = 100; next_label = 0 }

let block label insts term = { Ir.label; insts; term }

(* A diamond:  entry -> (then | else) -> exit *)
let diamond () =
  mkfunc
    [ block "entry" []
        (Ir.Br { cond = Insn.Eq; src1 = Ir.Reg 0; src2 = Ir.Imm 0
               ; ifso = "then"; ifnot = "else" })
    ; block "then" [] (Ir.Jmp "exit")
    ; block "else" [] (Ir.Jmp "exit")
    ; block "exit" [] (Ir.Ret None) ]

(* entry -> head <-> body, head -> exit  (a while loop) *)
let while_loop ?(body_insts = []) ?(head_insts = []) () =
  mkfunc
    [ block "entry" [ Ir.Mov (1, Ir.Imm 0) ] (Ir.Jmp "head")
    ; block "head" head_insts
        (Ir.Br { cond = Insn.Lt; src1 = Ir.Reg 1; src2 = Ir.Imm 10
               ; ifso = "body"; ifnot = "exit" })
    ; block "body" (body_insts @ [ Ir.Bin (Ir.Add, 1, Ir.Reg 1, Ir.Imm 1) ])
        (Ir.Jmp "head")
    ; block "exit" [] (Ir.Ret (Some (Ir.Reg 1))) ]

let labels cfg = List.map (Cfg.label cfg)

let test_cfg_edges () =
  let cfg = Cfg.of_func (diamond ()) in
  let at = Cfg.index cfg in
  Alcotest.(check (list string)) "entry succs" [ "then"; "else" ]
    (labels cfg (Cfg.succs cfg (at "entry")));
  Alcotest.(check (list string)) "exit preds (sorted)" [ "else"; "then" ]
    (List.sort compare (labels cfg (Cfg.preds cfg (at "exit"))));
  check "rpo covers all" 4 (Array.length (Cfg.rpo cfg));
  Alcotest.(check string) "rpo starts at entry" "entry" (Cfg.label cfg (Cfg.rpo cfg).(0))

let test_cfg_unreachable () =
  let f =
    mkfunc
      [ block "entry" [] (Ir.Ret None)
      ; block "island" [] (Ir.Jmp "entry") ]
  in
  let cfg = Cfg.of_func f in
  check_bool "island unreachable" false (Cfg.reachable cfg (Cfg.index cfg "island"));
  check "one unreachable" 1 (List.length (Cfg.unreachable_blocks cfg))

let test_dominators_diamond () =
  let cfg = Cfg.of_func (diamond ()) in
  let dom = Dominators.compute cfg in
  let at = Cfg.index cfg in
  check_bool "entry dominates all" true (Dominators.dominates dom (at "entry") (at "exit"));
  check_bool "then does not dominate exit" false
    (Dominators.dominates dom (at "then") (at "exit"));
  check_bool "self-domination" true (Dominators.dominates dom (at "then") (at "then"));
  Alcotest.(check (option string)) "idom of exit" (Some "entry")
    (Option.map (Cfg.label cfg) (Dominators.idom dom (at "exit")))

let test_loop_detection () =
  let cfg = Cfg.of_func (while_loop ()) in
  let dom = Dominators.compute cfg in
  let loops = Loops.compute cfg dom in
  check "one loop" 1 (List.length loops);
  let l = List.hd loops in
  let at = Cfg.index cfg in
  Alcotest.(check string) "header" "head" (Cfg.label cfg l.Loops.header);
  check_bool "body in loop" true (Loops.mem l (at "body"));
  check_bool "entry not in loop" false (Loops.mem l (at "entry"));
  check_bool "exit not in loop" false (Loops.mem l (at "exit"));
  Alcotest.(check (list string)) "latch" [ "body" ] (labels cfg l.Loops.back_edges);
  check "depth" 1 l.Loops.depth

let test_nested_loops_inner_first () =
  let f =
    mkfunc
      [ block "entry" [] (Ir.Jmp "oh")
      ; block "oh" []
          (Ir.Br { cond = Insn.Lt; src1 = Ir.Reg 1; src2 = Ir.Imm 10
                 ; ifso = "ih"; ifnot = "exit" })
      ; block "ih" []
          (Ir.Br { cond = Insn.Lt; src1 = Ir.Reg 2; src2 = Ir.Imm 10
                 ; ifso = "ib"; ifnot = "ol" })
      ; block "ib" [] (Ir.Jmp "ih")
      ; block "ol" [ Ir.Bin (Ir.Add, 1, Ir.Reg 1, Ir.Imm 1) ] (Ir.Jmp "oh")
      ; block "exit" [] (Ir.Ret None) ]
  in
  let cfg = Cfg.of_func f in
  let loops = Loops.compute cfg (Dominators.compute cfg) in
  check "two loops" 2 (List.length loops);
  let first = List.hd loops in
  Alcotest.(check string) "inner first" "ih" (Cfg.label cfg first.Loops.header);
  check "inner depth 2" 2 first.Loops.depth;
  (* the innermost loop containing the inner body is the inner loop *)
  match Loops.innermost_containing loops (Cfg.index cfg "ib") with
  | Some l -> Alcotest.(check string) "innermost of ib" "ih" (Cfg.label cfg l.Loops.header)
  | None -> Alcotest.fail "ib should be in a loop"

let test_liveness () =
  (* v1 is the loop counter: live through the loop, dead after the
     Ret consumes it; v2 is defined and used only inside the body. *)
  let f =
    while_loop
      ~body_insts:[ Ir.Bin (Ir.Mul, 2, Ir.Reg 1, Ir.Imm 3)
                  ; Ir.Store { size = Insn.Word; src = Ir.Reg 2
                             ; addr = Ir.Abs 4096 } ]
      ()
  in
  let cfg = Cfg.of_func f in
  let live = Liveness.compute cfg in
  let live_in l = Liveness.live_in live (Cfg.index cfg l) in
  let live_out l = Liveness.live_out live (Cfg.index cfg l) in
  let module Bitset = Elag_ir.Bitset in
  check_bool "counter live into head" true (Bitset.mem (live_in "head") 1);
  check_bool "counter live out of body" true (Bitset.mem (live_out "body") 1);
  check_bool "temp not live into head" false (Bitset.mem (live_in "head") 2);
  check_bool "temp not live out of body" false (Bitset.mem (live_out "body") 2);
  Alcotest.(check (list int)) "nothing live into entry" [] (Bitset.elements (live_in "entry"))

let test_inst_metadata () =
  let load =
    Ir.Load { spec = Insn.Ld_n; size = Insn.Word; sign = Insn.Signed; dst = 3
            ; addr = Ir.Base_index (1, 2) }
  in
  Alcotest.(check (list int)) "load uses" [ 1; 2 ] (Ir.inst_uses load);
  Alcotest.(check (list int)) "load defs" [ 3 ] (Ir.inst_defs load);
  let call = Ir.Call { dst = Some 5; callee = "f"; args = [ Ir.Reg 1; Ir.Imm 2 ] } in
  Alcotest.(check (list int)) "call uses" [ 1 ] (Ir.inst_uses call);
  Alcotest.(check (list int)) "call defs" [ 5 ] (Ir.inst_defs call);
  check_bool "store has side effect" true
    (Ir.has_side_effect (Ir.Store { size = Insn.Word; src = Ir.Imm 0; addr = Ir.Abs 0 }));
  check_bool "bin is pure" false (Ir.has_side_effect (Ir.Bin (Ir.Add, 1, Ir.Imm 1, Ir.Imm 2)))

(* [subst_address] with v1 = 100, v2 = 8 and v3 -> v4: constants fold,
   symbolic and absolute addresses are left alone *)
let test_abs_sym_addressing () =
  let addr = Ir.Abs_sym ("glob", 8) in
  Alcotest.(check (list int)) "no registers" [] (Ir.address_vregs addr);
  let subst = function 1 -> Ir.Imm 100 | 2 -> Ir.Imm 8 | 3 -> Ir.Reg 4 | v -> Ir.Reg v in
  let check name expected addr =
    check_bool name true (Ir.subst_address subst addr = expected)
  in
  check "map preserves symbolic" addr addr;
  check "absolute untouched" (Ir.Abs 4) (Ir.Abs 4);
  check "base renamed" (Ir.Base (4, 12)) (Ir.Base (3, 12));
  check "constant base" (Ir.Abs 112) (Ir.Base (1, 12));
  check "index renamed" (Ir.Base_index (4, 5)) (Ir.Base_index (3, 5));
  check "constant index" (Ir.Base (4, 8)) (Ir.Base_index (3, 2));
  check "constant base of two" (Ir.Base (5, 100)) (Ir.Base_index (1, 5));
  check "both constant" (Ir.Abs 108) (Ir.Base_index (1, 2))

let suite =
  [ Alcotest.test_case "cfg: edges and rpo" `Quick test_cfg_edges
  ; Alcotest.test_case "cfg: unreachable" `Quick test_cfg_unreachable
  ; Alcotest.test_case "dominators: diamond" `Quick test_dominators_diamond
  ; Alcotest.test_case "loops: while" `Quick test_loop_detection
  ; Alcotest.test_case "loops: nested inner-first" `Quick test_nested_loops_inner_first
  ; Alcotest.test_case "liveness: loop counter" `Quick test_liveness
  ; Alcotest.test_case "ir: inst metadata" `Quick test_inst_metadata
  ; Alcotest.test_case "ir: abs_sym" `Quick test_abs_sym_addressing ]
