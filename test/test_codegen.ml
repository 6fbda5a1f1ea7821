(* Code-generation tests: register-allocation correctness under
   pressure (spilling), calling convention, frame behaviour under deep
   recursion, and properties of the emitted program. *)

module Ir = Elag_ir.Ir
module Insn = Elag_isa.Insn
module Reg = Elag_isa.Reg
module Program = Elag_isa.Program
module Regalloc = Elag_codegen.Regalloc
module Compile = Elag_harness.Compile
module Emulator = Elag_sim.Emulator

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run src =
  let program = Compile.compile src in
  Emulator.output (Emulator.run_program ~max_insns:50_000_000 program)

(* Register pressure: a computation keeping ~60 values live at once
   must spill and still compute correctly at every optimization
   level. *)
let spill_stress_src =
  let n = 60 in
  let decls =
    String.concat " "
      (List.init n (fun i -> Printf.sprintf "int v%d = %d * g + %d;" i (i + 1) i))
  in
  let sum = String.concat " + " (List.init n (fun i -> Printf.sprintf "v%d" i)) in
  Printf.sprintf
    "int g; int main() { g = 3; %s g = 0; /* keep all alive past a clobber */ %s \
     print_int(%s); return 0; }"
    decls
    "if (g) { print_int(0); }"
    sum

let spill_expected =
  (* sum of (i+1)*3 + i for i in 0..59 *)
  let v = List.init 60 (fun i -> ((i + 1) * 3) + i) in
  Printf.sprintf "%d\n" (List.fold_left ( + ) 0 v)

let test_spill_stress () =
  Alcotest.(check string) "spilled computation correct" spill_expected
    (run spill_stress_src)

let test_regalloc_spills_under_pressure () =
  (* a function with more simultaneously-live vregs than registers *)
  let n = 80 in
  let f =
    { Ir.name = "f"; params = []; blocks = []; slots = []
    ; next_vreg = n + 1; next_label = 0 }
  in
  let defs = List.init n (fun i -> Ir.Bin (Ir.Add, i, Ir.Imm i, Ir.Imm 1)) in
  (* one instruction using all of them pairwise keeps them live *)
  let uses =
    List.init (n - 1) (fun i -> Ir.Bin (Ir.Add, n, Ir.Reg i, Ir.Reg (i + 1)))
  in
  f.Ir.blocks <-
    [ { Ir.label = "entry"; insts = defs @ List.rev uses; term = Ir.Ret (Some (Ir.Reg n)) } ];
  let result = Regalloc.allocate f in
  check_bool "spills happened" true (result.Regalloc.spill_count > 0);
  (* every vreg got a location *)
  List.iteri
    (fun i _ ->
      match result.Regalloc.location i with
      | Regalloc.In_reg r -> check_bool "valid register" true (Reg.is_valid r)
      | Regalloc.Spilled s -> check_bool "valid slot" true (s >= 0))
    (List.init n Fun.id)

let test_call_crossing_values_survive () =
  (* values live across calls must come back intact (callee-saved or
     spilled) even when many are live *)
  let src =
    "int id(int x) { return x; } \
     int main() { \
       int a = 11; int b = 22; int c = 33; int d = 44; int e = 55; \
       int r1 = id(1); int r2 = id(2); int r3 = id(3); \
       print_int(a + b + c + d + e + r1 + r2 + r3); return 0; }"
  in
  (* keep id out-of-line so calls really happen *)
  let options = { Compile.default_options with inline_threshold = 0 } in
  let program = Compile.compile ~options src in
  let out = Emulator.output (Emulator.run_program program) in
  Alcotest.(check string) "values survive calls" "171\n" out

let test_deep_recursion_frames () =
  (* thousands of live frames: stack discipline and ra save/restore *)
  let src =
    "int depth(int n) { if (n == 0) { return 0; } return 1 + depth(n - 1); } \
     int main() { print_int(depth(5000)); return 0; }"
  in
  Alcotest.(check string) "deep recursion" "5000\n" (run src)

let test_load_specs_survive_codegen () =
  (* classification decisions made on the IR must appear verbatim in
     the emitted program *)
  let src =
    Elag_workloads.Runtime.with_prelude
      "struct n { int v; struct n *next; }; \
       int tab[256]; \
       int main() { \
         struct n *h = (struct n*)0; int i; int s = 0; \
         for (i = 0; i < 64; i++) { \
           struct n *c = (struct n*)alloc_node(sizeof(struct n)); \
           c->v = i; c->next = h; h = c; } \
         for (i = 0; i < 256; i++) { s = s + tab[i]; } \
         while (h) { s = s + h->v; h = h->next; } \
         print_int(s); return 0; }"
  in
  let program = Compile.compile src in
  let count spec =
    List.length
      (List.filter
         (fun (_, insn) -> Insn.load_spec insn = Some spec)
         (Program.static_loads program))
  in
  check_bool "program has ld_p loads" true (count Insn.Ld_p >= 1);
  check_bool "program has ld_e loads" true (count Insn.Ld_e >= 1);
  (* classification must not affect program output *)
  Alcotest.(check string) "self-check output" "2016\n"
    (Emulator.output (Emulator.run_program program))

let test_emitted_program_shape () =
  let program = Compile.compile "int main() { return 0; }" in
  (* _start is the entry and the program halts *)
  check "entry at zero" 0 (Program.entry program);
  let has_halt = ref false in
  for pc = 0 to Program.length program - 1 do
    if Program.insn program pc = Insn.Halt then has_halt := true
  done;
  check_bool "program halts" true !has_halt

(* --- golden listings ------------------------------------------------------- *)

(* The MD5 of every compiled listing: each workload at O0, O1 and at O2
   with unroll factors 0, 4 and 8, with the heuristics and (suffix
   "-nc") without classification, plus one digest over the listings of
   [Gen.minic] seeds 0-199.  Any change to what the compiler emits moves
   a digest; an analysis or pass rewrite that must not change code is
   checked by this file staying put.  Regenerate with the hook described
   in {!Golden}. *)
let golden_listings () =
  let module Json = Elag_telemetry.Json in
  let workloads =
    List.map
      (fun (w : Elag_workloads.Workload.t) ->
        ( w.name
        , Json.Obj
            (List.map
               (fun (name, options) ->
                 (name, Json.String (Compile.listing_digest ~options w.source)))
               Compile.listing_options) ))
      Elag_workloads.Suite.all
  in
  let minic =
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.init 200 (fun seed ->
                 Compile.listing_digest ~options:Compile.default_options
                   (Elag_fuzz.Gen.minic seed)))))
  in
  Json.to_string ~pretty:true
    (Json.Obj [ ("workloads", Json.Obj workloads); ("minic_seeds_0_199", Json.String minic) ])
  ^ "\n"

let test_golden_listings () =
  Golden.check ~file:"golden_listings.json" (golden_listings ())

let suite =
  [ Alcotest.test_case "spill stress" `Quick test_spill_stress
  ; Alcotest.test_case "regalloc under pressure" `Quick test_regalloc_spills_under_pressure
  ; Alcotest.test_case "call-crossing values" `Quick test_call_crossing_values_survive
  ; Alcotest.test_case "deep recursion" `Quick test_deep_recursion_frames
  ; Alcotest.test_case "load specs survive" `Quick test_load_specs_survive_codegen
  ; Alcotest.test_case "program shape" `Quick test_emitted_program_shape
  ; Alcotest.test_case "golden listings" `Quick test_golden_listings ]
