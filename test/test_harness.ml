(* Harness tests: profiling and profile-guided reclassification.
   (Artifact caching and distribution accounting moved with the
   Context-to-Engine redesign; see test_engine.ml.) *)

module Compile = Elag_harness.Compile
module Profile = Elag_harness.Profile
module Insn = Elag_isa.Insn
module Program = Elag_isa.Program
module Runtime = Elag_workloads.Runtime

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A program with one hot, perfectly strided load that the compiler
   misclassifies as ld_n (its base register is loaded from memory). *)
let misclassified_src =
  Runtime.with_prelude
    "int data[1024];\n\
     int base_holder;\n\
     int main() {\n\
     int i; int s = 0;\n\
     base_holder = (int)data;\n\
     for (i = 0; i < 1024; i++) {\n\
       int *p = (int*)base_holder;   /* load-dependent base */\n\
       s = s + p[i];\n\
     }\n\
     print_int(s);\n\
     return 0; }"

let test_profile_collects_rates () =
  let program = Compile.compile misclassified_src in
  let prof = Profile.collect program in
  check_bool "loads observed" true (Profile.total_loads prof > 1000);
  (* at least one load should be highly predictable *)
  let has_predictable =
    List.exists
      (fun (pc, _) ->
        match Profile.rate prof pc with Some r -> r > 0.9 | None -> false)
      (Program.static_loads program)
  in
  check_bool "predictable load found" true has_predictable

let test_reclassify_upgrades_nt () =
  let program = Compile.compile misclassified_src in
  let prof = Profile.collect program in
  let reclassified = Profile.reclassify prof program in
  let count spec p =
    List.length
      (List.filter
         (fun (pc, _) ->
           Insn.load_spec (Program.insn p pc) = Some spec
           && Profile.executions prof pc > 100)
         (Program.static_loads p))
  in
  (* hot ld_n loads with high rates must become ld_p *)
  check_bool "hot ld_n loads reduced" true
    (count Insn.Ld_n reclassified < count Insn.Ld_n program
     || count Insn.Ld_n program = 0);
  (* nothing else is overruled: ld_e loads unchanged *)
  List.iter
    (fun (pc, insn) ->
      match Insn.load_spec insn with
      | Some Insn.Ld_e ->
        check_bool "ld_e untouched" true
          (Insn.load_spec (Program.insn reclassified pc) = Some Insn.Ld_e)
      | _ -> ())
    (Program.static_loads program)

let test_reclassify_threshold () =
  let program = Compile.compile misclassified_src in
  let prof = Profile.collect program in
  let reclassified = Profile.reclassify prof program in
  (* exactly the ld_n loads whose rate exceeds the paper's 0.60 move *)
  List.iter
    (fun (pc, insn) ->
      let upgrade =
        Insn.load_spec insn = Some Insn.Ld_n
        && match Profile.rate prof pc with Some r -> r > 0.60 | None -> false
      in
      check_bool "ld_p iff ld_n with rate > 0.60" true
        (Insn.load_spec (Program.insn reclassified pc)
         = if upgrade then Some Insn.Ld_p else Insn.load_spec insn))
    (Program.static_loads program)

let suite =
  [ Alcotest.test_case "profile rates" `Quick test_profile_collects_rates
  ; Alcotest.test_case "reclassify upgrades" `Quick test_reclassify_upgrades_nt
  ; Alcotest.test_case "reclassify threshold" `Quick test_reclassify_threshold ]
