(* Optimizer tests: each pass is checked for the specific
   transformation it must perform (on IR produced from MiniC sources),
   and a qcheck property validates that local optimization preserves
   straight-line evaluation semantics on random programs. *)

module Ir = Elag_ir.Ir
module Insn = Elag_isa.Insn
module Alu = Elag_isa.Alu
module Parser = Elag_minic.Parser
module Sema = Elag_minic.Sema
module Lower = Elag_ir.Lower
module Opt = Elag_opt.Driver

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ir_of ?(optimize = true) src =
  let ir = Lower.lower_program (Sema.check (Parser.parse src)) in
  if optimize then ignore (Opt.optimize ir);
  ir

let func ir name =
  List.find (fun (f : Ir.func) -> f.Ir.name = name) ir.Ir.funcs

let all_insts (f : Ir.func) =
  List.concat_map (fun (b : Ir.block) -> b.Ir.insts) f.Ir.blocks

let count_insts pred f = List.length (List.filter pred (all_insts f))

let is_load = function Ir.Load _ -> true | _ -> false
let is_mul = function Ir.Bin (Ir.Mul, _, _, _) -> true | _ -> false

(* --- constant folding / propagation ------------------------------------ *)

let test_constant_folding () =
  let ir = ir_of "int main() { int a = 6; int b = 7; return a * b + 1; }" in
  let main = func ir "main" in
  (* everything folds to a single returned constant *)
  (match (Ir.entry_block main).Ir.term with
  | Ir.Ret (Some (Ir.Imm 43)) -> ()
  | Ir.Ret _ -> Alcotest.fail "return not folded to 43"
  | _ -> ());
  check "no remaining arithmetic" 0
    (count_insts (function Ir.Bin _ -> true | _ -> false) main)

let test_branch_folding_removes_dead_arm () =
  let ir =
    ir_of
      "int main() { int x; if (1 < 2) { x = 10; } else { x = 20; } return x; }"
  in
  let main = func ir "main" in
  check "single block after folding" 1 (List.length main.Ir.blocks);
  match (Ir.entry_block main).Ir.term with
  | Ir.Ret (Some (Ir.Imm 10)) -> ()
  | _ -> Alcotest.fail "dead branch arm survived"

let test_redundant_load_elimination () =
  (* two loads of g with no intervening store: one survives *)
  let ir =
    ir_of "int g; int use(int a, int b) { return a + b; } \
           int main() { return use(g, g); }"
  in
  check "one load of g" 1 (count_insts is_load (func ir "main"))

let test_store_to_load_forwarding () =
  let ir =
    ir_of "int g; int main() { g = 42; return g; }"
  in
  let main = func ir "main" in
  check "no load after store" 0 (count_insts is_load main);
  match (Ir.entry_block main).Ir.term with
  | Ir.Ret (Some (Ir.Imm 42)) -> ()
  | _ -> Alcotest.fail "store value not forwarded"

(* --- dead code ----------------------------------------------------------- *)

let test_dce_removes_unused () =
  let ir = ir_of "int main() { int unused = 5 * 13; return 1; }" in
  check "no insts remain" 0 (List.length (all_insts (func ir "main")))

let test_dce_keeps_stores_and_calls () =
  let ir =
    ir_of "int g; void f() { g = g + 1; } int main() { f(); return 0; }"
  in
  (* the call must survive even though its (absent) result is unused; after
     inlining it may have become the store itself *)
  let main = func ir "main" in
  let effects =
    count_insts (function Ir.Store _ | Ir.Call _ -> true | _ -> false) main
  in
  check_bool "side effect survives" true (effects >= 1)

(* --- inlining ------------------------------------------------------------- *)

let test_inlining_small_function () =
  let ir =
    ir_of
      "int sq(int x) { return x * x; } \
       int main() { int i; int s = 0; for (i = 0; i < 10; i++) { s = s + sq(i); } \
       return s; }"
  in
  check "no calls left in main" 0
    (count_insts (function Ir.Call _ -> true | _ -> false) (func ir "main"))

let test_recursive_not_inlined () =
  let ir =
    ir_of "int f(int n) { if (n < 1) return 0; return n + f(n - 1); } \
           int main() { return f(5); }"
  in
  check_bool "recursive call survives in f" true
    (count_insts (function Ir.Call _ -> true | _ -> false) (func ir "f") >= 1)

(* --- loop optimizations ---------------------------------------------------- *)

let test_licm_hoists_invariant () =
  let ir =
    ir_of
      "int a; int b; \
       int main() { int i; int s = 0; \
       for (i = 0; i < 100; i++) { s = s + a * b; } return s; }"
  in
  let main = func ir "main" in
  let cfg = Elag_ir.Cfg.of_func main in
  let dom = Elag_ir.Dominators.compute cfg in
  let loops = Elag_ir.Loops.compute cfg dom in
  check "loop present" 1 (List.length loops);
  let loop = List.hd loops in
  let in_loop_muls =
    List.length
      (List.concat_map
         (fun (b : Ir.block) ->
           if Elag_ir.Loops.mem loop (Elag_ir.Cfg.index cfg b.Ir.label) then
             List.filter is_mul b.Ir.insts
           else [])
         main.Ir.blocks)
  in
  check "multiply hoisted out of loop" 0 in_loop_muls

let test_strength_reduction_removes_mul () =
  let ir =
    ir_of
      "int acc; \
       int main() { int i; int s = 0; \
       for (i = 0; i < 50; i++) { s = s + i * 12; } acc = s; return s; }"
  in
  let main = func ir "main" in
  let cfg = Elag_ir.Cfg.of_func main in
  let dom = Elag_ir.Dominators.compute cfg in
  let loops = Elag_ir.Loops.compute cfg dom in
  let loop = List.hd loops in
  let in_loop_muls =
    List.length
      (List.concat_map
         (fun (b : Ir.block) ->
           if Elag_ir.Loops.mem loop (Elag_ir.Cfg.index cfg b.Ir.label) then
             List.filter is_mul b.Ir.insts
           else [])
         main.Ir.blocks)
  in
  check "loop multiply strength-reduced" 0 in_loop_muls

let test_addr_promote_makes_reg_offset () =
  (* an array sweep must end up with register+offset (pointer) loads,
     the Figure 4b code shape *)
  let ir =
    ir_of
      "int tab[64]; \
       int main() { int i; int s = 0; \
       for (i = 0; i < 64; i++) { s = s + tab[i]; } return s; }"
  in
  let main = func ir "main" in
  let reg_reg_loads =
    count_insts
      (function Ir.Load { addr = Ir.Base_index _; _ } -> true | _ -> false)
      main
  in
  let reg_offset_loads =
    count_insts
      (function Ir.Load { addr = Ir.Base _; _ } -> true | _ -> false)
      main
  in
  check "no reg+reg loads remain" 0 reg_reg_loads;
  check_bool "pointer loads present" true (reg_offset_loads >= 1)

let test_unroll_multiplies_static_loads () =
  let src =
    "int tab[64]; \
     int main() { int i; int s = 0; \
     for (i = 0; i < 64; i++) { s = s + tab[i]; } return s; }"
  in
  let ir4 = Lower.lower_program (Sema.check (Parser.parse src)) in
  ignore (Opt.optimize ~unroll_factor:4 ir4);
  let ir1 = Lower.lower_program (Sema.check (Parser.parse src)) in
  ignore (Opt.optimize ~unroll_factor:0 ir1);
  let loads ir = count_insts is_load (func ir "main") in
  check "unrolled 4x" (4 * loads ir1) (loads ir4)

(* --- interprocedural purity ------------------------------------------------- *)

let test_purity_summaries () =
  let ir =
    ir_of ~optimize:false
      "int g;        int pure_math(int x) { return x * x + 1; }        int reads_mem(int i) { return g + i; }        void writes_mem(int v) { g = v; }        int chained(int x) { return reads_mem(x) + 1; }        int main() { writes_mem(pure_math(chained(2))); return g; }"
  in
  let t = Elag_opt.Purity.analyze ir in
  let s name = Elag_opt.Purity.find t name in
  check_bool "pure_math does not write" false (s "pure_math").Elag_opt.Purity.writes_memory;
  check_bool "pure_math returns arithmetic" false (s "pure_math").Elag_opt.Purity.returns_loaded;
  check_bool "reads_mem does not write" false (s "reads_mem").Elag_opt.Purity.writes_memory;
  check_bool "reads_mem returns loaded" true (s "reads_mem").Elag_opt.Purity.returns_loaded;
  check_bool "writes_mem writes" true (s "writes_mem").Elag_opt.Purity.writes_memory;
  check_bool "main transitively writes" true (s "main").Elag_opt.Purity.writes_memory;
  check_bool "chained propagates loaded return" true (s "chained").Elag_opt.Purity.returns_loaded;
  check_bool "unknown callee conservative" true
    (Elag_opt.Purity.find t "nope").Elag_opt.Purity.writes_memory;
  check_bool "builtin harmless" false
    (Elag_opt.Purity.find t "print_int").Elag_opt.Purity.writes_memory

let test_licm_hoists_load_past_pure_call () =
  (* with summaries, the loop-invariant load of [g] hoists even though
     the loop calls a (store-free) function too large to inline *)
  let src =
    "int g;      int noise(int x) {        int a = x; int i;        for (i = 0; i < 4; i++) { a = a * 3 + i; a = a ^ (a >> 2);          a = a + i * 7; a = a - (a >> 3); a = a | 1; a = a * 5;          a = a ^ 9; a = a + 2; a = a * 3; a = a - 4; a = a ^ 5; }        return a; }      int main() { int i; int s = 0;        for (i = 0; i < 50; i++) { s = s + g + noise(i); } return s; }"
  in
  let ir = ir_of ~optimize:false src in
  ignore (Elag_opt.Inline.run ~threshold:10 ir);  (* keep noise out-of-line *)
  let main = func ir "main" in
  let fix () = for _ = 1 to 8 do
    ignore (Elag_opt.Simplify_cfg.run main);
    ignore (Elag_opt.Local_opt.run main);
    ignore (Elag_opt.Dce.run main)
  done in
  fix ();
  (* without summaries: the call blocks hoisting *)
  ignore (Elag_opt.Licm.run main);
  fix ();
  let loads_in_loop () =
    let cfg = Elag_ir.Cfg.of_func main in
    let dom = Elag_ir.Dominators.compute cfg in
    match Elag_ir.Loops.compute cfg dom with
    | loop :: _ ->
      List.length
        (List.concat_map
           (fun (b : Ir.block) ->
             if Elag_ir.Loops.mem loop (Elag_ir.Cfg.index cfg b.Ir.label) then
               List.filter is_load b.Ir.insts
             else [])
           main.Ir.blocks)
    | [] -> -1
  in
  check_bool "load still in loop without summaries" true (loads_in_loop () >= 1);
  let summaries = Elag_opt.Purity.analyze ir in
  ignore (Elag_opt.Licm.run ~summaries main);
  fix ();
  check "load hoisted with summaries" 0 (loads_in_loop ())

(* --- scalar propagation on hand-built IR ----------------------------------- *)

(* [v1] is the only parameter. *)
let mkfunc blocks =
  { Ir.name = "f"; params = [ 1 ]; blocks; slots = []; next_vreg = 10; next_label = 0 }

let block l insts term = { Ir.label = l; insts; term }
let ret v = Ir.Ret (Some (Ir.Reg v))

let test_collapse_single_use_temp () =
  let entry =
    block "entry" [ Ir.Bin (Ir.Add, 2, Ir.Reg 1, Ir.Imm 1); Ir.Mov (1, Ir.Reg 2) ] (ret 1)
  in
  check_bool "changed" true (Elag_opt.Local_opt.run (mkfunc [ entry ]));
  check_bool "v1 = add v1, 1" true (entry.insts = [ Ir.Bin (Ir.Add, 1, Ir.Reg 1, Ir.Imm 1) ])

let test_collapse_keeps_shared_temp () =
  let insts = [ Ir.Bin (Ir.Add, 2, Ir.Reg 1, Ir.Imm 1); Ir.Mov (1, Ir.Reg 2) ] in
  let entry = block "entry" insts (ret 2) in
  ignore (Elag_opt.Local_opt.run (mkfunc [ entry ]));
  check_bool "temporary with two uses stays" true (entry.insts = insts)

let test_global_constant_crosses_blocks () =
  let next = block "next" [ Ir.Bin (Ir.Add, 3, Ir.Reg 1, Ir.Reg 2) ] (ret 3) in
  let f = mkfunc [ block "entry" [ Ir.Mov (2, Ir.Imm 5) ] (Ir.Jmp "next"); next ] in
  check_bool "changed" true (Elag_opt.Local_opt.run f);
  check_bool "v2 is 5 in the next block" true
    (next.insts = [ Ir.Bin (Ir.Add, 3, Ir.Reg 1, Ir.Imm 5) ])

let test_global_skips_two_definitions () =
  let join_insts = [ Ir.Bin (Ir.Add, 3, Ir.Reg 1, Ir.Reg 2) ] in
  let join = block "join" join_insts (ret 3) in
  let f =
    mkfunc
      [ block "entry" [ Ir.Mov (2, Ir.Imm 5) ]
          (Ir.Br { cond = Insn.Lt; src1 = Ir.Reg 1; src2 = Ir.Imm 3; ifso = "a"; ifnot = "join" })
      ; block "a" [ Ir.Mov (2, Ir.Imm 7) ] (Ir.Jmp "join")
      ; join ]
  in
  check_bool "unchanged" false (Elag_opt.Local_opt.run f);
  check_bool "v2 not propagated" true (join.insts = join_insts)

let test_global_copy_chain () =
  let next = block "next" [] (ret 3) in
  let f =
    mkfunc [ block "entry" [ Ir.Mov (2, Ir.Imm 5); Ir.Mov (3, Ir.Reg 2) ] (Ir.Jmp "next"); next ]
  in
  check_bool "changed" true (Elag_opt.Local_opt.run f);
  check_bool "v3 = v2 = 5 resolves to 5" true (next.term = Ir.Ret (Some (Ir.Imm 5)))

(* [Global_addr], [Slot_addr] and [Bin] share one availability table. *)
let test_address_reuse () =
  let entry =
    block "entry"
      [ Ir.Global_addr (2, "g"); Ir.Global_addr (3, "g"); Ir.Slot_addr (4, 0)
      ; Ir.Slot_addr (5, 0); Ir.Bin (Ir.Add, 6, Ir.Reg 3, Ir.Reg 5) ]
      (ret 6)
  in
  check_bool "changed" true (Elag_opt.Local_opt.run (mkfunc [ entry ]));
  check_bool "repeats become copies of the first register" true
    (entry.insts
    = [ Ir.Global_addr (2, "g"); Ir.Mov (3, Ir.Reg 2); Ir.Slot_addr (4, 0)
      ; Ir.Mov (5, Ir.Reg 4); Ir.Bin (Ir.Add, 6, Ir.Reg 2, Ir.Reg 4) ])

let test_address_not_reused_after_redefinition () =
  let insts =
    [ Ir.Global_addr (2, "g"); Ir.Bin (Ir.Add, 2, Ir.Reg 2, Ir.Imm 4); Ir.Global_addr (3, "g")
    ; Ir.Slot_addr (4, 0); Ir.Mov (4, Ir.Imm 0); Ir.Slot_addr (5, 0)
    ; Ir.Bin (Ir.Add, 6, Ir.Reg 3, Ir.Reg 5) ]
  in
  let entry = block "entry" insts (ret 6) in
  check_bool "unchanged" false (Elag_opt.Local_opt.run (mkfunc [ entry ]));
  check_bool "both addresses recomputed" true (entry.insts = insts)

(* A rewrite that only substitutes within the block or swaps operands
   still counts. *)
let test_every_rewrite_reported () =
  let subst =
    block "entry"
      [ Ir.Mov (2, Ir.Reg 1); Ir.Bin (Ir.Sub, 3, Ir.Reg 2, Ir.Imm 1); Ir.Mov (2, Ir.Imm 0) ]
      (ret 3)
  in
  check_bool "block-local substitution" true (Elag_opt.Local_opt.run (mkfunc [ subst ]));
  let swap = block "entry" [ Ir.Bin (Ir.Add, 3, Ir.Imm 1, Ir.Reg 1) ] (ret 3) in
  check_bool "operand swap" true (Elag_opt.Local_opt.run (mkfunc [ swap ]));
  check_bool "immediate second" true (swap.insts = [ Ir.Bin (Ir.Add, 3, Ir.Reg 1, Ir.Imm 1) ])

(* --- semantics preservation (property) ------------------------------------- *)

(* A tiny interpreter for straight-line instruction lists. *)
let interp_block insts term =
  let regs = Hashtbl.create 16 in
  let get = function Ir.Reg v -> Option.value (Hashtbl.find_opt regs v) ~default:0
                   | Ir.Imm n -> n in
  List.iter
    (fun inst ->
      match inst with
      | Ir.Bin (op, d, a, b) ->
        Hashtbl.replace regs d (Alu.eval (Ir.alu_of_binop op) (get a) (get b))
      | Ir.Mov (d, a) -> Hashtbl.replace regs d (get a)
      | _ -> ())
    insts;
  match term with
  | Ir.Ret (Some op) -> get op
  | _ -> 0

(* Bins define a fresh register; Movs define a fresh one or redefine
   an earlier one, often copying the latest, so the collapse and the
   single-definition table both fire.  Every read names a register
   defined before it. *)
let random_straightline =
  let open QCheck.Gen in
  let op = oneofl [ Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor; Ir.Sll; Ir.Slt ] in
  let operand used =
    if used = 0 then map (fun n -> Ir.Imm n) (int_range (-64) 64)
    else
      frequency
        [ (2, map (fun v -> Ir.Reg (v mod used)) (int_range 0 (used - 1)))
        ; (1, map (fun n -> Ir.Imm n) (int_range (-64) 64)) ]
  in
  let bin used =
    map3 (fun o a b -> (Ir.Bin (o, used, a, b), used + 1)) op (operand used) (operand used)
  in
  let latest_or_any used =
    if used = 0 then operand used
    else frequency [ (1, return (Ir.Reg (used - 1))); (2, operand used) ]
  in
  let mov used =
    int_range 0 used >>= fun d ->
    latest_or_any used >>= fun src ->
    return (Ir.Mov (d, src), if d = used then used + 1 else used)
  in
  let rec gen_insts used n =
    if n = 0 then return ([], used)
    else
      frequency [ (2, bin used); (1, mov used) ] >>= fun (inst, used) ->
      gen_insts used (n - 1) >>= fun (rest, used) -> return (inst :: rest, used)
  in
  int_range 1 20 >>= fun n ->
  gen_insts 0 n >>= fun (insts, used) ->
  int_range 0 (used - 1) >>= fun ret ->
  return (insts, Ir.Ret (Some (Ir.Reg ret)))

let local_opt_preserves_semantics =
  QCheck.Test.make ~name:"local_opt preserves straight-line semantics" ~count:300
    (QCheck.make random_straightline)
    (fun (insts, term) ->
      let before = interp_block insts term in
      let b = { Ir.label = "b"; insts; term } in
      let f =
        { Ir.name = "g"; params = []; blocks = [ b ]
        ; slots = []; next_vreg = 100; next_label = 0 }
      in
      ignore (Elag_opt.Local_opt.run f);
      let b' = Ir.entry_block f in
      interp_block b'.Ir.insts b'.Ir.term = before)

let dce_never_changes_output =
  QCheck.Test.make ~name:"dce preserves straight-line semantics" ~count:300
    (QCheck.make random_straightline)
    (fun (insts, term) ->
      let before = interp_block insts term in
      let b = { Ir.label = "b"; insts; term } in
      let f =
        { Ir.name = "g"; params = []; blocks = [ b ]
        ; slots = []; next_vreg = 100; next_label = 0 }
      in
      ignore (Elag_opt.Dce.run f);
      let b' = Ir.entry_block f in
      interp_block b'.Ir.insts b'.Ir.term = before)

let suite =
  [ Alcotest.test_case "const folding" `Quick test_constant_folding
  ; Alcotest.test_case "branch folding" `Quick test_branch_folding_removes_dead_arm
  ; Alcotest.test_case "redundant load elim" `Quick test_redundant_load_elimination
  ; Alcotest.test_case "store-to-load forwarding" `Quick test_store_to_load_forwarding
  ; Alcotest.test_case "dce removes dead" `Quick test_dce_removes_unused
  ; Alcotest.test_case "dce keeps effects" `Quick test_dce_keeps_stores_and_calls
  ; Alcotest.test_case "inlining" `Quick test_inlining_small_function
  ; Alcotest.test_case "recursion not inlined" `Quick test_recursive_not_inlined
  ; Alcotest.test_case "licm hoists" `Quick test_licm_hoists_invariant
  ; Alcotest.test_case "strength reduction" `Quick test_strength_reduction_removes_mul
  ; Alcotest.test_case "pointer-iv formation (fig 4b)" `Quick
      test_addr_promote_makes_reg_offset
  ; Alcotest.test_case "unrolling" `Quick test_unroll_multiplies_static_loads
  ; Alcotest.test_case "purity summaries" `Quick test_purity_summaries
  ; Alcotest.test_case "licm past pure calls" `Quick test_licm_hoists_load_past_pure_call
  ; Alcotest.test_case "collapse single-use temp" `Quick test_collapse_single_use_temp
  ; Alcotest.test_case "collapse keeps shared temp" `Quick test_collapse_keeps_shared_temp
  ; Alcotest.test_case "global constant crosses blocks" `Quick
      test_global_constant_crosses_blocks
  ; Alcotest.test_case "global skips two definitions" `Quick test_global_skips_two_definitions
  ; Alcotest.test_case "global copy chain" `Quick test_global_copy_chain
  ; Alcotest.test_case "address reuse" `Quick test_address_reuse
  ; Alcotest.test_case "address not reused after redefinition" `Quick
      test_address_not_reused_after_redefinition
  ; Alcotest.test_case "every rewrite reported" `Quick test_every_rewrite_reported ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ local_opt_preserves_semantics; dce_never_changes_output ]
