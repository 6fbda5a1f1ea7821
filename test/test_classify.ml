(* Tests for the compiler-directed load classification (paper
   Section 4), including direct reproductions of the Figure 4
   examples. *)

module Ir = Elag_ir.Ir
module Insn = Elag_isa.Insn
module Classify = Elag_core.Classify
module Parser = Elag_minic.Parser
module Sema = Elag_minic.Sema
module Lower = Elag_ir.Lower
module Opt = Elag_opt.Driver

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mkfunc blocks =
  { Ir.name = "f"; params = []; blocks; slots = []; next_vreg = 100; next_label = 0 }

let block label insts term = { Ir.label; insts; term }

let load ?(spec = Insn.Ld_n) dst addr =
  Ir.Load { spec; size = Insn.Word; sign = Insn.Signed; dst; addr }

let spec_counts (f : Ir.func) =
  List.fold_left
    (fun (n, p, e) inst ->
      match inst with
      | Ir.Load { spec = Insn.Ld_n; _ } -> (n + 1, p, e)
      | Ir.Load { spec = Insn.Ld_p; _ } -> (n, p + 1, e)
      | Ir.Load { spec = Insn.Ld_e; _ } -> (n, p, e + 1)
      | _ -> (n, p, e))
    (0, 0, 0)
    (List.concat_map (fun (b : Ir.block) -> b.Ir.insts) f.Ir.blocks)

let spec_of_load (f : Ir.func) ~block_label ~index =
  let b = Ir.find_block f block_label in
  match List.nth b.Ir.insts index with
  | Ir.Load { spec; _ } -> spec
  | _ -> Alcotest.fail "expected a load"

let check_spec name expected actual =
  Alcotest.(check string) name
    (Fmt.str "%a" Insn.pp_load_spec expected)
    (Fmt.str "%a" Insn.pp_load_spec actual)

(* --- Figure 4(a)/(b): the for loop ------------------------------------ *)
(* for (i=0; i<N; i++) { .. = arr1[ind[i]]; .. = arr2[i]; }
     op1  ld_p r4, r17(0)   <- ind[i], pointer-IV over ind
     op3  ld_n r6, r19(r5)  <- arr1[r4<<2]: index is load-derived
     op4  ld_p r7, r18(0)   <- arr2[i] *)
let test_figure4_for_loop () =
  let v_ind_ptr = 17 and v_arr2_ptr = 18 and v_arr1 = 19 in
  let v_i = 1 and v4 = 4 and v5 = 5 and v6 = 6 and v7 = 7 in
  let f =
    mkfunc
      [ block "entry"
          [ Ir.Mov (v_i, Ir.Imm 0)
          ; Ir.Global_addr (v_ind_ptr, "ind")
          ; Ir.Global_addr (v_arr2_ptr, "arr2")
          ; Ir.Global_addr (v_arr1, "arr1") ]
          (Ir.Jmp "loop")
      ; block "loop"
          [ load v4 (Ir.Base (v_ind_ptr, 0))        (* op1: ind walk *)
          ; Ir.Bin (Ir.Sll, v5, Ir.Reg v4, Ir.Imm 2) (* op2 *)
          ; load v6 (Ir.Base_index (v_arr1, v5))    (* op3: arr1[ind[i]] *)
          ; load v7 (Ir.Base (v_arr2_ptr, 0))       (* op4: arr2 walk *)
          ; Ir.Bin (Ir.Add, v_i, Ir.Reg v_i, Ir.Imm 1)
          ; Ir.Bin (Ir.Add, v_arr2_ptr, Ir.Reg v_arr2_ptr, Ir.Imm 4)
          ; Ir.Bin (Ir.Add, v_ind_ptr, Ir.Reg v_ind_ptr, Ir.Imm 4) ]
          (Ir.Br { cond = Insn.Lt; src1 = Ir.Reg v_i; src2 = Ir.Imm 100
                 ; ifso = "loop"; ifnot = "exit" })
      ; block "exit" [] (Ir.Ret None) ]
  in
  Classify.run_func f;
  check_spec "op1 (ind[i]) is ld_p" Insn.Ld_p (spec_of_load f ~block_label:"loop" ~index:0);
  check_spec "op3 (arr1[ind[i]]) is ld_n" Insn.Ld_n (spec_of_load f ~block_label:"loop" ~index:2);
  check_spec "op4 (arr2[i]) is ld_p" Insn.Ld_p (spec_of_load f ~block_label:"loop" ~index:3)

(* --- Figure 4(c)/(d): the pointer-chasing while loop -------------------- *)
(* while (p) { ..=p->f1; ..=p->f2; p=p->next; }
   op11..op13 all base r2, register+offset: the largest group -> ld_e *)
let test_figure4_while_loop () =
  let v_p = 2 and v3 = 3 and v4 = 4 in
  let f =
    mkfunc
      [ block "entry" [] (Ir.Jmp "head")
      ; block "head" []
          (Ir.Br { cond = Insn.Ne; src1 = Ir.Reg v_p; src2 = Ir.Imm 0
                 ; ifso = "body"; ifnot = "exit" })
      ; block "body"
          [ load v3 (Ir.Base (v_p, 0))   (* op11: p->f1 *)
          ; load v4 (Ir.Base (v_p, 4))   (* op12: p->f2 *)
          ; load v_p (Ir.Base (v_p, 8))  (* op13: p = p->next *) ]
          (Ir.Jmp "head")
      ; block "exit" [] (Ir.Ret None) ]
  in
  Classify.run_func f;
  check_spec "op11 is ld_e" Insn.Ld_e (spec_of_load f ~block_label:"body" ~index:0);
  check_spec "op12 is ld_e" Insn.Ld_e (spec_of_load f ~block_label:"body" ~index:1);
  check_spec "op13 is ld_e" Insn.Ld_e (spec_of_load f ~block_label:"body" ~index:2)

(* Load-dependent loads in a smaller base group are ld_n, not ld_e. *)
let test_smaller_group_gets_ld_n () =
  let v_p = 2 and v_q = 3 in
  let f =
    mkfunc
      [ block "entry" [] (Ir.Jmp "head")
      ; block "head" []
          (Ir.Br { cond = Insn.Ne; src1 = Ir.Reg v_p; src2 = Ir.Imm 0
                 ; ifso = "body"; ifnot = "exit" })
      ; block "body"
          [ load 4 (Ir.Base (v_p, 0))
          ; load 5 (Ir.Base (v_p, 4))
          ; load 6 (Ir.Base (v_q, 0))   (* lone load off q *)
          ; load v_p (Ir.Base (v_p, 8))
          ; load v_q (Ir.Base (v_q, 4)) ]
          (Ir.Jmp "head")
      ; block "exit" [] (Ir.Ret None) ]
  in
  Classify.run_func f;
  check_spec "p group wins ld_e" Insn.Ld_e (spec_of_load f ~block_label:"body" ~index:0);
  check_spec "q group is ld_n" Insn.Ld_n (spec_of_load f ~block_label:"body" ~index:2);
  check_spec "q chain is ld_n" Insn.Ld_n (spec_of_load f ~block_label:"body" ~index:4)

(* --- acyclic heuristics -------------------------------------------------- *)

let test_acyclic_absolute_is_ld_p () =
  let f =
    mkfunc
      [ block "entry"
          [ load 1 (Ir.Abs_sym ("glob", 0))
          ; load 2 (Ir.Abs 4096)
          ; load 3 (Ir.Base (1, 0))
          ; load 4 (Ir.Base (1, 4))
          ; load 5 (Ir.Base (2, 0)) ]
          (Ir.Ret None) ]
  in
  Classify.run_func f;
  check_spec "symbolic absolute -> ld_p" Insn.Ld_p (spec_of_load f ~block_label:"entry" ~index:0);
  check_spec "numeric absolute -> ld_p" Insn.Ld_p (spec_of_load f ~block_label:"entry" ~index:1);
  check_spec "largest base group -> ld_e" Insn.Ld_e (spec_of_load f ~block_label:"entry" ~index:2);
  check_spec "same group -> ld_e" Insn.Ld_e (spec_of_load f ~block_label:"entry" ~index:3);
  check_spec "other base -> ld_n" Insn.Ld_n (spec_of_load f ~block_label:"entry" ~index:4)

(* Call results are treated as load-derived. *)
let test_call_result_is_load_derived () =
  let f =
    mkfunc
      [ block "entry" [] (Ir.Jmp "head")
      ; block "head" []
          (Ir.Br { cond = Insn.Ne; src1 = Ir.Reg 9; src2 = Ir.Imm 0
                 ; ifso = "body"; ifnot = "exit" })
      ; block "body"
          [ Ir.Call { dst = Some 1; callee = "next"; args = [] }
          ; load 2 (Ir.Base (1, 0))
          ; Ir.Bin (Ir.Add, 9, Ir.Reg 9, Ir.Imm (-1)) ]
          (Ir.Jmp "head")
      ; block "exit" [] (Ir.Ret None) ]
  in
  Classify.run_func f;
  (* load off a call result is load-dependent; as the only (largest)
     reg+offset group it becomes ld_e *)
  check_spec "load off call result" Insn.Ld_e (spec_of_load f ~block_label:"body" ~index:1)

(* --- nested loops and ties ---------------------------------------------- *)

(* A load is decided by its innermost loop only, while the outer loop's
   S_load spans its whole body, inner loop included.  v6 is loaded only
   in the inner loop, so the outer loop's loads off v6 are load-dependent
   (ld_e, the largest group) only through the inner body.  The inner load
   off v8 is arithmetic there (ld_p); the outer loop, where v8 is
   load-derived, would have made it ld_n. *)
let test_nested_loops () =
  let f =
    mkfunc
      [ block "entry" [] (Ir.Jmp "outer")
      ; block "outer"
          [ load 5 (Ir.Base (6, 0))
          ; load 11 (Ir.Base (6, 4))
          ; load 8 (Ir.Base (6, 8)) ]
          (Ir.Jmp "inner")
      ; block "inner"
          [ load 6 (Ir.Base (8, 0))
          ; Ir.Bin (Ir.Add, 9, Ir.Reg 9, Ir.Imm 1) ]
          (Ir.Br { cond = Insn.Lt; src1 = Ir.Reg 9; src2 = Ir.Imm 10
                 ; ifso = "inner"; ifnot = "latch" })
      ; block "latch"
          [ Ir.Bin (Ir.Add, 10, Ir.Reg 10, Ir.Imm 1) ]
          (Ir.Br { cond = Insn.Lt; src1 = Ir.Reg 10; src2 = Ir.Imm 100
                 ; ifso = "outer"; ifnot = "exit" })
      ; block "exit" [] (Ir.Ret None) ]
  in
  Classify.run_func f;
  check_spec "inner load decided by the inner loop" Insn.Ld_p
    (spec_of_load f ~block_label:"inner" ~index:0);
  List.iter
    (fun index ->
      check_spec "outer load off an inner load's destination" Insn.Ld_e
        (spec_of_load f ~block_label:"outer" ~index))
    [ 0; 1; 2 ]

(* Two register+offset groups of equal size: the winner is the first
   base register [Hashtbl.fold] meets in the classifier's group table,
   which for bases v10 and v20 is v20 — neither the lower vreg nor the
   group first in program order.  The rule is the same in loops and in
   acyclic code. *)
let test_tie_between_equal_groups () =
  let loop =
    mkfunc
      [ block "entry" [] (Ir.Jmp "head")
      ; block "head" []
          (Ir.Br { cond = Insn.Ne; src1 = Ir.Reg 10; src2 = Ir.Imm 0
                 ; ifso = "body"; ifnot = "exit" })
      ; block "body"
          [ load 3 (Ir.Base (10, 0))
          ; load 10 (Ir.Base (10, 8))
          ; load 4 (Ir.Base (20, 0))
          ; load 20 (Ir.Base (20, 8)) ]
          (Ir.Jmp "head")
      ; block "exit" [] (Ir.Ret None) ]
  in
  Classify.run_func loop;
  List.iter
    (fun (index, spec) ->
      check_spec "loop tie" spec (spec_of_load loop ~block_label:"body" ~index))
    [ (0, Insn.Ld_n); (1, Insn.Ld_n); (2, Insn.Ld_e); (3, Insn.Ld_e) ];
  let acyclic =
    mkfunc
      [ block "entry"
          [ load 3 (Ir.Base (10, 0))
          ; load 4 (Ir.Base (10, 4))
          ; load 5 (Ir.Base (20, 0))
          ; load 6 (Ir.Base (20, 4)) ]
          (Ir.Ret None) ]
  in
  Classify.run_func acyclic;
  List.iter
    (fun (index, spec) ->
      check_spec "acyclic tie" spec (spec_of_load acyclic ~block_label:"entry" ~index))
    [ (0, Insn.Ld_n); (1, Insn.Ld_n); (2, Insn.Ld_e); (3, Insn.Ld_e) ]

(* --- end-to-end classification of compiled MiniC ------------------------ *)

let compile_classified src =
  let ir = Lower.lower_program (Sema.check (Parser.parse src)) in
  ignore (Opt.optimize ir);
  Classify.run ir;
  ir

let test_pointer_loop_end_to_end () =
  let ir =
    compile_classified
      "struct node { int v; struct node *next; }; \
       struct node *head; \
       int main() { struct node *p = head; int s = 0; \
       while (p) { s = s + p->v; p = p->next; } return s; }"
  in
  let main = List.find (fun (f : Ir.func) -> f.Ir.name = "main") ir.Ir.funcs in
  let _, _, e = spec_counts main in
  check_bool "pointer loop produces ld_e loads" true (e >= 2)

let test_array_loop_end_to_end () =
  let ir =
    compile_classified
      "int tab[128]; \
       int main() { int i; int s = 0; \
       for (i = 0; i < 128; i++) { s = s + tab[i]; } return s; }"
  in
  let main = List.find (fun (f : Ir.func) -> f.Ir.name = "main") ir.Ir.funcs in
  let _, p, _ = spec_counts main in
  check_bool "array loop produces ld_p loads" true (p >= 1)

let suite =
  [ Alcotest.test_case "figure 4a/4b for loop" `Quick test_figure4_for_loop
  ; Alcotest.test_case "figure 4c/4d while loop" `Quick test_figure4_while_loop
  ; Alcotest.test_case "smaller group -> ld_n" `Quick test_smaller_group_gets_ld_n
  ; Alcotest.test_case "acyclic rules" `Quick test_acyclic_absolute_is_ld_p
  ; Alcotest.test_case "call results load-derived" `Quick test_call_result_is_load_derived
  ; Alcotest.test_case "nested loops" `Quick test_nested_loops
  ; Alcotest.test_case "tie between equal groups" `Quick test_tie_between_equal_groups
  ; Alcotest.test_case "pointer loop end-to-end" `Quick test_pointer_loop_end_to_end
  ; Alcotest.test_case "array loop end-to-end" `Quick test_array_loop_end_to_end ]
