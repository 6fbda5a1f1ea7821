(* Simulator tests: memory, caches, the emulator on hand-assembled
   programs, and the pipeline timing model's key behaviours (load-use
   stall, ld_p/ld_e latency reduction, port pressure, speedup
   ordering). *)

module Insn = Elag_isa.Insn
module Reg = Elag_isa.Reg
module Layout = Elag_isa.Layout
module Program = Elag_isa.Program
module Memory = Elag_sim.Memory
module Cache = Elag_sim.Cache
module Emulator = Elag_sim.Emulator
module Pipeline = Elag_sim.Pipeline
module Config = Elag_sim.Config

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- memory -------------------------------------------------------------- *)

let test_memory_rw () =
  let m = Memory.create ~size:4096 () in
  Memory.write_word m 100 0x12345678;
  check "word" 0x12345678 (Memory.read_word m 100);
  check "byte 0 (little endian)" 0x78 (Memory.read_byte_u m 100);
  check "byte 3" 0x12 (Memory.read_byte_u m 103);
  Memory.write_word m 200 (-1);
  check "negative word" (-1) (Memory.read_word m 200);
  check "signed byte" (-1) (Memory.read_byte_s m 200);
  check "unsigned byte" 255 (Memory.read_byte_u m 200);
  Memory.write_half m 300 0xFFFF;
  check "signed half" (-1) (Memory.read_half_s m 300);
  check "unsigned half" 0xFFFF (Memory.read_half_u m 300)

let test_memory_fault () =
  let m = Memory.create ~size:4096 () in
  Alcotest.check_raises "oob" (Memory.Fault 4093) (fun () ->
      ignore (Memory.read_word m 4093));
  Alcotest.check_raises "negative" (Memory.Fault (-4)) (fun () ->
      ignore (Memory.read_word m (-4)))

(* --- cache ---------------------------------------------------------------- *)

let test_cache_direct_mapped () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:64 () in
  check_bool "cold miss" false (Cache.access c 0);
  check_bool "hit after fill" true (Cache.access c 0);
  check_bool "same line hits" true (Cache.access c 63);
  check_bool "next line misses" false (Cache.access c 64);
  (* 1024/64 = 16 lines: address 0 and 1024 conflict *)
  check_bool "conflicting line evicts" false (Cache.access c 1024);
  check_bool "original evicted" false (Cache.access c 0)

let test_cache_probe_pure () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:64 () in
  check_bool "probe misses" false (Cache.probe c 0);
  check_bool "probe does not fill" false (Cache.probe c 0);
  let accesses, _ = Cache.stats c in
  check "probe not counted" 0 accesses

let test_cache_associativity () =
  (* 2-way, 2 sets of 64B lines: three conflicting lines fit two ways *)
  let c = Cache.create ~ways:2 ~size_bytes:256 ~line_bytes:64 () in
  check_bool "miss a" false (Cache.access c 0);
  check_bool "miss b (same set)" false (Cache.access c 128);
  check_bool "both resident" true (Cache.probe c 0 && Cache.probe c 128);
  (* third conflicting line evicts the LRU (a) *)
  check_bool "miss c" false (Cache.access c 256);
  check_bool "lru evicted" false (Cache.probe c 0);
  check_bool "mru kept" true (Cache.probe c 128);
  (* touching b then filling keeps b *)
  ignore (Cache.access c 128);
  ignore (Cache.access c 0);
  check_bool "c was lru now" false (Cache.probe c 256)

let test_cache_store_no_allocate () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:64 () in
  check_bool "store miss" false (Cache.access_store c 0);
  check_bool "store did not allocate" false (Cache.probe c 0)

(* --- emulator on hand-written assembly ----------------------------------- *)

let asm ?(data = []) items =
  let layout = Layout.create () in
  List.iter
    (fun (label, init) -> ignore (Layout.add layout ~label ~align:4 ~init))
    data;
  Program.assemble ~layout (Program.Label "_start" :: items)

let run program =
  let emu = Emulator.run_program program in
  (Emulator.output emu, Emulator.retired emu)

let test_emulator_alu_program () =
  let p =
    asm
      [ Program.Insn (Insn.Li { dst = 10; imm = 6 })
      ; Program.Insn (Insn.Alu { op = Insn.Mul; dst = 11; src1 = 10; src2 = Insn.I 7 })
      ; Program.Insn (Insn.Alu { op = Insn.Add; dst = Reg.arg_first; src1 = 11; src2 = Insn.I 0 })
      ; Program.Insn (Insn.Syscall Insn.Print_int)
      ; Program.Insn Insn.Halt ]
  in
  let out, retired = run p in
  Alcotest.(check string) "output" "42\n" out;
  check "retired" 5 retired

let test_emulator_memory_and_branches () =
  let p =
    asm
      ~data:[ ("vec", Layout.Words [ 3; 5; 7; 11 ]) ]
      [ Program.Insn (Insn.Li { dst = 10; imm = Layout.default_base })  (* &vec *)
      ; Program.Insn (Insn.Li { dst = 11; imm = 0 })  (* sum *)
      ; Program.Insn (Insn.Li { dst = 12; imm = 0 })  (* i *)
      ; Program.Label "loop"
      ; Program.Insn
          (Insn.Load
             { spec = Insn.Ld_n; size = Insn.Word; sign = Insn.Signed; dst = 13
             ; addr = Insn.Base_offset (10, 0) })
      ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 11; src1 = 11; src2 = Insn.R 13 })
      ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 10; src1 = 10; src2 = Insn.I 4 })
      ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 12; src1 = 12; src2 = Insn.I 1 })
      ; Program.Insn
          (Insn.Branch { cond = Insn.Lt; src1 = 12; src2 = Insn.I 4; target = "loop" })
      ; Program.Insn (Insn.Alu { op = Insn.Add; dst = Reg.arg_first; src1 = 11; src2 = Insn.I 0 })
      ; Program.Insn (Insn.Syscall Insn.Print_int)
      ; Program.Insn Insn.Halt ]
  in
  let out, _ = run p in
  Alcotest.(check string) "sum" "26\n" out

let test_emulator_call_return () =
  let p =
    asm
      [ Program.Insn (Insn.Li { dst = Reg.sp; imm = 65536 })
      ; Program.Insn (Insn.Jal "double")
      ; Program.Insn (Insn.Alu { op = Insn.Add; dst = Reg.arg_first; src1 = Reg.rv; src2 = Insn.I 0 })
      ; Program.Insn (Insn.Syscall Insn.Print_int)
      ; Program.Insn Insn.Halt
      ; Program.Label "double"
      ; Program.Insn (Insn.Li { dst = Reg.rv; imm = 21 })
      ; Program.Insn (Insn.Alu { op = Insn.Add; dst = Reg.rv; src1 = Reg.rv; src2 = Insn.R Reg.rv })
      ; Program.Insn (Insn.Jr Reg.ra) ]
  in
  let out, _ = run p in
  Alcotest.(check string) "call" "42\n" out

let test_emulator_runaway_guard () =
  let p = asm [ Program.Label "spin"; Program.Insn (Insn.Jump "spin") ] in
  check_bool "raises Runaway" true
    (try
       ignore (Emulator.run_program ~max_insns:1000 p);
       false
     with Emulator.Runaway _ -> true)

(* Boundary behaviour of Memory.check: the last in-range access of
   each width succeeds, one byte past the end faults, and negative
   addresses fault rather than wrap. *)
let test_memory_check_boundaries () =
  let size = 4096 in
  let m = Memory.create ~size () in
  Memory.write_word m (size - 4) 0x0BADCAFE;
  check "word at size-4" 0x0BADCAFE (Memory.read_word m (size - 4));
  Memory.write_half m (size - 2) 0x1234;
  check "half at size-2" 0x1234 (Memory.read_half_u m (size - 2));
  Memory.write_byte m (size - 1) 0xAB;
  check "byte at size-1" 0xAB (Memory.read_byte_u m (size - 1));
  (* addr + n = size + 1: the first word start that overruns *)
  Alcotest.check_raises "word ending at size+1" (Memory.Fault (size - 3))
    (fun () -> ignore (Memory.read_word m (size - 3)));
  Alcotest.check_raises "half ending at size+1" (Memory.Fault (size - 1))
    (fun () -> ignore (Memory.read_half_u m (size - 1)));
  Alcotest.check_raises "byte at size" (Memory.Fault size) (fun () ->
      ignore (Memory.read_byte_u m size));
  Alcotest.check_raises "negative byte" (Memory.Fault (-1)) (fun () ->
      ignore (Memory.read_byte_u m (-1)));
  Alcotest.check_raises "negative word write" (Memory.Fault (-4)) (fun () ->
      Memory.write_word m (-4) 0)

(* A computed jump to exactly code_len (one past the last instruction)
   must raise Bad_jump carrying that pc and the retire count. *)
let test_bad_jump_at_code_len () =
  let p =
    asm
      [ Program.Insn (Insn.Li { dst = Reg.tmp_first; imm = 2 })
      ; Program.Insn (Insn.Jr Reg.tmp_first) ]
  in
  check_bool "raises Bad_jump at code_len" true
    (try
       ignore (Emulator.run_program p);
       false
     with Emulator.Bad_jump { pc; retired } -> pc = 2 && retired = 2)

(* Runaway fires at exactly max_insns — and a program that needs
   exactly the budget does not trip it. *)
let test_runaway_exact_budget () =
  let spin = asm [ Program.Label "spin"; Program.Insn (Insn.Jump "spin") ] in
  check_bool "payload is the budget" true
    (try
       ignore (Emulator.run_program ~max_insns:137 spin);
       false
     with Emulator.Runaway n -> n = 137);
  let three =
    asm
      [ Program.Insn Insn.Nop; Program.Insn Insn.Nop; Program.Insn Insn.Halt ]
  in
  let emu = Emulator.run_program ~max_insns:3 three in
  check "exact budget retires fully" 3 (Emulator.retired emu);
  Alcotest.check_raises "one below the need" (Emulator.Runaway 2) (fun () ->
      ignore (Emulator.run_program ~max_insns:2 three))

(* The step API behind the differential oracle: one retire per call,
   false once halted, observer sees the same stream as run. *)
let test_emulator_step_lockstep () =
  let p =
    asm
      [ Program.Insn (Insn.Li { dst = Reg.arg_first; imm = 7 })
      ; Program.Insn (Insn.Syscall Insn.Print_int)
      ; Program.Insn Insn.Halt ]
  in
  let a = Emulator.create p and b = Emulator.create p in
  Emulator.run a;
  let steps = ref 0 in
  while Emulator.step b do
    incr steps
  done;
  check "steps = retired" (Emulator.retired a) !steps;
  check "retired agrees" (Emulator.retired a) (Emulator.retired b);
  check_bool "halted" true (Emulator.halted b);
  check_bool "step after halt" false (Emulator.step b);
  Alcotest.(check string) "output agrees" (Emulator.output a) (Emulator.output b)

let test_zero_register_immutable () =
  let p =
    asm
      [ Program.Insn (Insn.Li { dst = Reg.zero; imm = 99 })
      ; Program.Insn (Insn.Alu { op = Insn.Add; dst = Reg.arg_first; src1 = Reg.zero; src2 = Insn.I 0 })
      ; Program.Insn (Insn.Syscall Insn.Print_int)
      ; Program.Insn Insn.Halt ]
  in
  let out, _ = run p in
  Alcotest.(check string) "zero stays zero" "0\n" out

(* --- pipeline timing --------------------------------------------------------- *)

(* Pointer ring with leaf loads (the paper's Figure 1d): chase [next]
   pointers, also loading a payload field off the same base each
   iteration.  The leaf load benefits from ld_e. *)
let pointer_chase_program spec =
  let nodes = 64 in
  let node_words i =
    (* payload, next *)
    [ i * 3; Layout.default_base + (8 * ((i + 1) mod nodes)) ]
  in
  let data =
    [ ("ring", Layout.Words (List.concat_map node_words (List.init nodes Fun.id))) ]
  in
  asm ~data
    [ Program.Insn (Insn.Li { dst = 10; imm = Layout.default_base })
    ; Program.Insn (Insn.Li { dst = 12; imm = 0 })
    ; Program.Insn (Insn.Li { dst = 13; imm = 0 })
    ; Program.Label "loop"
    ; Program.Insn
        (Insn.Load
           { spec; size = Insn.Word; sign = Insn.Signed; dst = 14
           ; addr = Insn.Base_offset (10, 0) })  (* payload *)
    ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 13; src1 = 13; src2 = Insn.R 14 })
    ; Program.Insn
        (Insn.Load
           { spec; size = Insn.Word; sign = Insn.Signed; dst = 10
           ; addr = Insn.Base_offset (10, 4) })  (* next *)
    ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 12; src1 = 12; src2 = Insn.I 1 })
    ; Program.Insn
        (Insn.Branch { cond = Insn.Lt; src1 = 12; src2 = Insn.I 5000; target = "loop" })
    ; Program.Insn Insn.Halt ]

(* Strided walk over a large array: the ld_p target case. *)
let strided_program spec =
  asm
    ~data:[ ("arr", Layout.Zeros 32768) ]
    [ Program.Insn (Insn.Li { dst = 10; imm = Layout.default_base })
    ; Program.Insn (Insn.Li { dst = 12; imm = 0 })
    ; Program.Insn (Insn.Li { dst = 13; imm = 0 })
    ; Program.Label "loop"
    ; Program.Insn
        (Insn.Load
           { spec; size = Insn.Word; sign = Insn.Signed; dst = 14
           ; addr = Insn.Base_offset (10, 0) })
    ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 13; src1 = 13; src2 = Insn.R 14 })
    ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 10; src1 = 10; src2 = Insn.I 4 })
    ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 12; src1 = 12; src2 = Insn.I 1 })
    ; Program.Insn
        (Insn.Branch { cond = Insn.Lt; src1 = 12; src2 = Insn.I 5000; target = "loop" })
    ; Program.Insn Insn.Halt ]

let cycles_of mech program =
  let cfg = Config.with_mechanism mech Config.default in
  let stats, _ = Pipeline.simulate cfg program in
  stats.Pipeline.cycles

let test_load_use_stall_baseline () =
  (* ALU-only loop vs load-use loop of the same instruction count: the
     load-use loop must be slower by roughly a cycle per iteration. *)
  let alu_loop =
    asm
      [ Program.Insn (Insn.Li { dst = 12; imm = 0 })
      ; Program.Label "loop"
      ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 11; src1 = 12; src2 = Insn.I 3 })
      ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 13; src1 = 11; src2 = Insn.I 1 })
      ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 12; src1 = 12; src2 = Insn.I 1 })
      ; Program.Insn
          (Insn.Branch { cond = Insn.Lt; src1 = 12; src2 = Insn.I 10000; target = "loop" })
      ; Program.Insn Insn.Halt ]
  in
  let load_loop =
    asm
      ~data:[ ("w", Layout.Words [ 1 ]) ]
      [ Program.Insn (Insn.Li { dst = 12; imm = 0 })
      ; Program.Label "loop"
      ; Program.Insn
          (Insn.Load
             { spec = Insn.Ld_n; size = Insn.Word; sign = Insn.Signed; dst = 11
             ; addr = Insn.Absolute Layout.default_base })
      ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 13; src1 = 11; src2 = Insn.I 1 })
      ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 12; src1 = 12; src2 = Insn.I 1 })
      ; Program.Insn
          (Insn.Branch { cond = Insn.Lt; src1 = 12; src2 = Insn.I 10000; target = "loop" })
      ; Program.Insn Insn.Halt ]
  in
  let alu_cycles = cycles_of Config.No_early alu_loop in
  let load_cycles = cycles_of Config.No_early load_loop in
  check_bool "load-use loop slower" true (load_cycles > alu_cycles)

let dual_cc =
  Config.Dual { table_entries = 256; selection = Config.Compiler_directed }

let test_ld_e_speeds_pointer_leaves () =
  let base = cycles_of Config.No_early (pointer_chase_program Insn.Ld_n) in
  let early = cycles_of dual_cc (pointer_chase_program Insn.Ld_e) in
  check_bool "ld_e speeds the ring walk" true (early < base);
  (* and an ld_n binary under the same config gains nothing *)
  let inert = cycles_of dual_cc (pointer_chase_program Insn.Ld_n) in
  check "ld_n is inert under dual-cc" base inert

let test_ld_p_speeds_strided () =
  let base = cycles_of Config.No_early (strided_program Insn.Ld_n) in
  let predicted = cycles_of dual_cc (strided_program Insn.Ld_p) in
  check_bool "ld_p speeds the strided walk" true (predicted < base)

let test_table_stats_reported () =
  let cfg = Config.with_mechanism dual_cc Config.default in
  let stats, _ = Pipeline.simulate cfg (strided_program Insn.Ld_p) in
  check_bool "attempts counted" true (stats.Pipeline.table_attempts > 0);
  check_bool "mostly successful" true
    (stats.Pipeline.table_successes * 10 > stats.Pipeline.table_attempts * 7);
  check "loads classified p" stats.Pipeline.loads stats.Pipeline.loads_p

let test_calc_only_bric () =
  let base = cycles_of Config.No_early (pointer_chase_program Insn.Ld_n) in
  let bric =
    cycles_of (Config.Calc_only { bric_entries = 8 }) (pointer_chase_program Insn.Ld_n)
  in
  check_bool "BRIC speeds pointer leaves without opcodes" true (bric < base)

let test_dcache_miss_penalty () =
  (* walking 32 KB of zeros with 64 B lines: every 16th load misses *)
  let cfg = Config.with_mechanism Config.No_early Config.default in
  let stats, _ = Pipeline.simulate cfg (strided_program Insn.Ld_n) in
  check_bool "misses observed" true (stats.Pipeline.dcache_misses >= 300);
  check_bool "latency includes penalty" true
    (stats.Pipeline.load_latency_sum > 2 * stats.Pipeline.loads)

let test_ld_e_trace_latencies () =
  (* cycle-exact check of the Figure 1d claim: in steady state, leaf
     loads off the chain register forward with latency 0 under ld_e,
     while the same binary's ld_n loads pay the full 2 cycles *)
  let collect mech program =
    let cfg = Config.with_mechanism mech Config.default in
    let t = Pipeline.create cfg in
    let events = ref [] in
    Pipeline.set_tracer t (fun pc insn cycle latency ->
        events := (pc, insn, cycle, latency) :: !events);
    ignore (Emulator.run_program ~observer:(Pipeline.observer t) program);
    List.rev !events
  in
  let steady_load_latencies mech spec =
    let events = collect mech (pointer_chase_program spec) in
    (* drop warmup, keep payload-load events (offset 0) *)
    List.filteri (fun i _ -> i > List.length events / 2) events
    |> List.filter_map (fun (_, insn, _, latency) ->
           match insn with
           | Insn.Load { addr = Insn.Base_offset (_, 0); _ } -> Some latency
           | _ -> None)
  in
  let baseline = steady_load_latencies Config.No_early Insn.Ld_n in
  check_bool "baseline leaf loads pay 2 cycles" true
    (List.for_all (fun l -> l = 2) baseline);
  let early = steady_load_latencies dual_cc Insn.Ld_e in
  let zeros = List.length (List.filter (fun l -> l = 0) early) in
  check_bool "most ld_e leaf loads forward with latency 0" true
    (zeros * 10 >= List.length early * 9)

let test_speedup_ordering_on_workload () =
  (* on a mixed workload: every early-generation config is at least as
     fast as baseline and never slower than 0.95x *)
  let w = Elag_workloads.Suite.find "072.sc" in
  let program = Elag_harness.Compile.compile w.Elag_workloads.Workload.source in
  let base = cycles_of Config.No_early program in
  List.iter
    (fun mech ->
      let c = cycles_of mech program in
      check_bool (Config.mechanism_name mech ^ " not slower than 1.05x base") true
        (float_of_int c <= 1.05 *. float_of_int base))
    [ Config.Table_only { entries = 256; compiler_filtered = true }
    ; Config.Calc_only { bric_entries = 16 }
    ; dual_cc
    ; Config.Dual { table_entries = 256; selection = Config.Hardware_selected } ]

(* The timed retire path allocates nothing in steady state: under every
   mechanism preset, emulating and timing 072.sc from its 100 K-th to
   its 1 M-th retire costs under one minor-heap word per retire.  This
   pins the table-driven pipeline, the fixed predictor structures and
   the in-flight store window's bound (without it the fixed store ring
   overflows under presets that rarely probe). *)
let test_retire_path_allocation_free () =
  let w = Elag_workloads.Suite.find "072.sc" in
  let program = Elag_harness.Compile.compile w.Elag_workloads.Workload.source in
  let warmup = 100_000 and total = 1_000_000 in
  let run_to emu observer n =
    try Emulator.run ~observer ~max_insns:n emu with Emulator.Runaway _ -> ()
  in
  List.iter
    (fun mech ->
      let t = Pipeline.create (Config.with_mechanism mech Config.default) in
      let emu = Emulator.create program in
      let observer = Pipeline.observer t in
      run_to emu observer warmup;
      let before = Gc.minor_words () in
      run_to emu observer total;
      let words = Gc.minor_words () -. before in
      let retires = Emulator.retired emu - warmup in
      check_bool (Config.mechanism_name mech ^ ": ran past warm-up") true (retires > 0);
      let per_retire = words /. float_of_int retires in
      if per_retire >= 1. then
        Alcotest.failf "%s: %.2f minor words per retire" (Config.mechanism_name mech)
          per_retire)
    Config.Mechanism.all

(* [reset] re-arms a pipeline and an emulator into the state [create]
   leaves: one pipeline runs every program below, and one emulator per
   program runs the 12 presets in a seeded shuffled order, so the
   table and BRIC sizes change between runs and the pipeline outlives
   each program, binding each its own load sites.  The two workloads stop at a [Runaway] mid-run before
   every reset.  Each run must match a fresh pipeline and emulator on
   every statistic, every load site with its histogram, the output and
   the retire count. *)
let test_reset_equals_create () =
  let runaways = ref 0 in
  let run pipe emu max_insns =
    match Emulator.run ~observer:(Pipeline.observer pipe) ?max_insns emu with
    | () -> None
    | exception Emulator.Runaway n ->
      incr runaways;
      Some n
  in
  let observe pipe emu outcome =
    ( ( Pipeline.stats pipe
      , Pipeline.stall_breakdown pipe
      , Pipeline.busy_cycles pipe
      , Pipeline.table_stats pipe
      , Pipeline.bric_stats pipe )
    , Pipeline.load_sites pipe
    , (Emulator.output emu, Emulator.retired emu, outcome) )
  in
  let compile name =
    let w = Elag_workloads.Suite.find name in
    (name, Elag_harness.Compile.compile w.Elag_workloads.Workload.source, Some 200_000)
  in
  let programs =
    List.init 40 (fun i ->
        let g = Elag_fuzz.Gen.program (i + 1) in
        (Printf.sprintf "gen %d" (i + 1), g.Elag_fuzz.Gen.program, Some g.Elag_fuzz.Gen.budget))
    @ [ compile "072.sc"; compile "PGP Encode" ]
  in
  let rng = Random.State.make [| 23 |] in
  let shuffled () =
    let a = Array.of_list Config.Mechanism.all in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  let pipe = Pipeline.create Config.default in
  List.iter
    (fun (name, program, max_insns) ->
      let emu = Emulator.create program in
      Array.iteri
        (fun k mech ->
          let cfg = Config.with_mechanism mech Config.default in
          if k > 0 then Emulator.reset emu;
          Pipeline.reset pipe cfg;
          let reused = observe pipe emu (run pipe emu max_insns) in
          let fresh =
            let pipe = Pipeline.create cfg and emu = Emulator.create program in
            observe pipe emu (run pipe emu max_insns)
          in
          let label what = Printf.sprintf "%s, %s: %s" name (Config.Mechanism.to_string mech) what in
          let (counters, sites, result) = reused and (counters', sites', result') = fresh in
          check_bool (label "statistics") true (counters = counters');
          check_bool (label "load sites") true (sites = sites');
          check_bool (label "output and retires") true (result = result'))
        (shuffled ()))
    programs;
  check_bool "runs stopped mid-run" true (!runaways > 0)

(* --- mechanism naming round-trip ----------------------------------------- *)

let test_mechanism_roundtrip () =
  List.iter
    (fun m ->
      let name = Config.Mechanism.to_string m in
      match Config.Mechanism.of_string name with
      | Some m' -> check_bool (name ^ " round-trips") true (m = m')
      | None -> Alcotest.fail (name ^ " failed to parse back"))
    Config.Mechanism.all;
  (* short CLI aliases *)
  check_bool "dual-cc alias" true
    (Config.Mechanism.of_string "dual-cc"
    = Some (Config.Dual { table_entries = 256; selection = Config.Compiler_directed }));
  check_bool "dual-hw alias" true
    (Config.Mechanism.of_string "dual-hw"
    = Some (Config.Dual { table_entries = 256; selection = Config.Hardware_selected }));
  check_bool "bare table alias" true
    (Config.Mechanism.of_string "table-128"
    = Some (Config.Table_only { entries = 128; compiler_filtered = false }));
  check_bool "unknown rejected" true (Config.Mechanism.of_string "bogus-64" = None);
  check_bool "non-numeric rejected" true (Config.Mechanism.of_string "table-x" = None);
  List.iter
    (fun name -> check_bool (name ^ " rejected") true (Config.Mechanism.of_string name = None))
    [ "calc-0"; "table-0"; "dual-0-cc" ];
  check_bool "grid is duplicate-free" true
    (List.length Config.Mechanism.all
    = List.length (List.sort_uniq compare Config.Mechanism.all))

let suite_head =
  [ Alcotest.test_case "config: mechanism round-trip" `Quick test_mechanism_roundtrip
  ; Alcotest.test_case "memory: rw" `Quick test_memory_rw
  ; Alcotest.test_case "memory: faults" `Quick test_memory_fault
  ; Alcotest.test_case "memory: check boundaries" `Quick
      test_memory_check_boundaries
  ; Alcotest.test_case "cache: direct mapped" `Quick test_cache_direct_mapped
  ; Alcotest.test_case "cache: probe pure" `Quick test_cache_probe_pure
  ; Alcotest.test_case "cache: associativity" `Quick test_cache_associativity
  ; Alcotest.test_case "cache: store no-allocate" `Quick test_cache_store_no_allocate
  ; Alcotest.test_case "emulator: alu" `Quick test_emulator_alu_program
  ; Alcotest.test_case "emulator: memory/branches" `Quick test_emulator_memory_and_branches
  ; Alcotest.test_case "emulator: call/return" `Quick test_emulator_call_return
  ; Alcotest.test_case "emulator: runaway" `Quick test_emulator_runaway_guard
  ; Alcotest.test_case "emulator: bad jump at code_len" `Quick
      test_bad_jump_at_code_len
  ; Alcotest.test_case "emulator: runaway exact budget" `Quick
      test_runaway_exact_budget
  ; Alcotest.test_case "emulator: step lockstep" `Quick
      test_emulator_step_lockstep
  ; Alcotest.test_case "emulator: zero register" `Quick test_zero_register_immutable
  ; Alcotest.test_case "pipeline: load-use stall" `Quick test_load_use_stall_baseline
  ; Alcotest.test_case "pipeline: ld_e pointer leaves" `Quick test_ld_e_speeds_pointer_leaves
  ; Alcotest.test_case "pipeline: ld_p strided" `Quick test_ld_p_speeds_strided
  ; Alcotest.test_case "pipeline: table stats" `Quick test_table_stats_reported
  ; Alcotest.test_case "pipeline: bric" `Quick test_calc_only_bric
  ; Alcotest.test_case "pipeline: miss penalty" `Quick test_dcache_miss_penalty
  ; Alcotest.test_case "pipeline: ld_e trace latencies" `Quick test_ld_e_trace_latencies
  ; Alcotest.test_case "pipeline: config ordering" `Quick test_speedup_ordering_on_workload
  ; Alcotest.test_case "pipeline: allocation-free retire path" `Quick
      test_retire_path_allocation_free
  ; Alcotest.test_case "pipeline: reset equals create" `Quick test_reset_equals_create ]

let suite = suite_head
