(* elagc — the MiniC -> EPA-32 compiler driver.

   Compiles a MiniC source file with the paper's optimization pipeline
   and load-classification heuristics, then (optionally) prints the IR
   or assembly, runs the program, or times it under a machine
   configuration.

     elagc prog.mc                 compile and print classification summary
     elagc -emit-ir prog.mc        print the optimized IR
     elagc -emit-asm prog.mc       print the assembled program
     elagc -run prog.mc            execute and print program output
     elagc -lint prog.mc           static EPA-32 verification of the artifact
     elagc -time dual-cc prog.mc   cycle-accurate timing under a mechanism,
                                   printed as elag_sim_run's run summary
     elagc -O0|-O1|-O2             optimization level (default -O2)
     elagc -no-classify            leave every load ld_n
     elagc -profile prog.mc        profile, reclassify, and re-time

   -time and -profile lint every program they time; a rejected artifact
   exits 2 with a one-line diagnostic. *)

module Compile = Elag_harness.Compile
module Profile = Elag_harness.Profile
module Program = Elag_isa.Program
module Insn = Elag_isa.Insn
module Opt = Elag_opt.Driver
module Config = Elag_sim.Config
module Lint = Elag_verify.Lint
module Diag = Elag_verify.Diag
module Pipeline = Elag_sim.Pipeline
module Report = Elag_sim.Report
module Emulator = Elag_sim.Emulator

type action = Summarize | Emit_ir | Emit_asm | Run | Lint | Time of Config.mechanism | Profile_run

let usage () =
  prerr_endline
    "usage: elagc [-O0|-O1|-O2] [-no-classify] \
     [-emit-ir|-emit-asm|-run|-lint|-time MECH|-profile] FILE.mc";
  prerr_endline
    "  mechanisms: baseline, table-N, table-N-cc, calc-N, dual-hw, dual-cc";
  exit 1

(* Unknown names print the mechanism vocabulary, as elag_sim_run does. *)
let mechanism_of_string s =
  try Config.Mechanism.of_string_exn s
  with Invalid_argument msg -> prerr_endline msg; usage ()

let summarize program =
  let loads = Program.static_loads program in
  let count spec =
    List.length (List.filter (fun (_, i) -> Insn.load_spec i = Some spec) loads)
  in
  Fmt.pr "%d instructions, %d static loads: %d ld_n, %d ld_p, %d ld_e@."
    (Program.length program) (List.length loads) (count Insn.Ld_n)
    (count Insn.Ld_p) (count Insn.Ld_e)

let () =
  let action = ref Summarize in
  let level = ref Opt.O2 in
  let classify = ref true in
  let file = ref None in
  let rec parse = function
    | [] -> ()
    | "-O0" :: rest -> level := Opt.O0; parse rest
    | "-O1" :: rest -> level := Opt.O1; parse rest
    | "-O2" :: rest -> level := Opt.O2; parse rest
    | "-no-classify" :: rest -> classify := false; parse rest
    | "-emit-ir" :: rest -> action := Emit_ir; parse rest
    | "-emit-asm" :: rest -> action := Emit_asm; parse rest
    | "-run" :: rest -> action := Run; parse rest
    | ("-lint" | "--lint") :: rest -> action := Lint; parse rest
    | "-time" :: mech :: rest -> action := Time (mechanism_of_string mech); parse rest
    | "-profile" :: rest -> action := Profile_run; parse rest
    | arg :: rest when String.length arg > 0 && arg.[0] <> '-' ->
      file := Some arg; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let file = match !file with Some f -> f | None -> usage () in
  let source =
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    (* workload runtime (alloc, rand) is always available *)
    Elag_workloads.Runtime.with_prelude s
  in
  let options =
    { Compile.default_options with
      opt_level = !level
    ; classification = (if !classify then Compile.Heuristics else Compile.No_classification) }
  in
  Diag.guard "elagc" @@ fun () ->
  try
    match !action with
    | Summarize -> summarize (Compile.compile ~options source)
    | Emit_ir -> Fmt.pr "%a@." Elag_ir.Ir.pp_program (Compile.to_ir ~options source)
    | Emit_asm -> Fmt.pr "%a@." Program.pp (Compile.compile ~options source)
    | Run ->
      let emu = Emulator.run_program (Compile.compile ~options source) in
      print_string (Emulator.output emu);
      Fmt.pr "[%d instructions retired]@." (Emulator.retired emu)
    | Lint ->
      let report = Lint.check (Compile.compile ~options source) in
      Fmt.pr "@[<v>%a@]@." Lint.pp report;
      if not (Lint.ok report) then exit 1
    | Time mech ->
      let program = Compile.compile ~options source in
      Lint.enforce program;
      let t, output = Pipeline.run (Config.with_mechanism mech Config.default) program in
      print_string (Report.to_text ~name:file ~output t)
    | Profile_run ->
      let program = Compile.compile ~options source in
      Lint.enforce program;
      let reclassified = Profile.reclassify (Profile.collect program) program in
      Lint.enforce reclassified;
      Fmt.pr "before profiling: ";
      summarize program;
      Fmt.pr "after profiling:  ";
      summarize reclassified;
      let time p mech =
        let cfg = Config.with_mechanism mech Config.default in
        (fst (Pipeline.simulate cfg p)).Pipeline.cycles
      in
      let dual = Config.Dual { table_entries = 256; selection = Config.Compiler_directed } in
      let base = time program Config.No_early in
      Fmt.pr "baseline %d cycles; dual-cc %.3fx; dual-cc+profile %.3fx@." base
        (float_of_int base /. float_of_int (time program dual))
        (float_of_int base /. float_of_int (time reclassified dual))
  with
  | Compile.Error msg -> prerr_endline ("elagc: " ^ msg); exit 1
  | Sys_error msg -> prerr_endline ("elagc: " ^ msg); exit 1
