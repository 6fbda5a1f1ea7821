(* The repository benchmark: host and simulated performance of the
   early-load-address-generation simulator, end to end and per layer.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --self-check [--seed N]
     main.exe --write-pins

   Every library is reached through its public interface only.  Load
   is one closed-loop caller in one process, and the engine pool runs
   at -j 1.  perfbench/README.md explains the workloads and metrics. *)

module Config = Elag_sim.Config
module Emulator = Elag_sim.Emulator
module Pipeline = Elag_sim.Pipeline
module Engine = Elag_engine.Engine
module Pool = Elag_engine.Pool
module Workload = Elag_workloads.Workload
module Suite = Elag_workloads.Suite
module Compile = Elag_harness.Compile
module Profile = Elag_harness.Profile
module Paper_data = Elag_harness.Paper_data
module Json = Elag_telemetry.Json
module Stall = Elag_telemetry.Stall
module Lint = Elag_verify.Lint
module Oracle = Elag_verify.Oracle
module Fault = Elag_verify.Fault
module Xorshift = Elag_verify.Xorshift
module Gen = Elag_fuzz.Gen
module Campaign = Elag_fuzz.Campaign
module Program = Elag_isa.Program

let dual_cc = Gate.dual_cc
let calc16 = Config.Calc_only { bric_entries = 16 }
let cfg m = Config.with_mechanism m Config.default
let jobs = 1
let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let fdiv a b = if b = 0. then 0. else a /. b
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- metrics ---------------------------------------------------------- *)

type kind = End_to_end | Per_layer

(* [exact]: a simulated or counted value that must repeat bit for bit
   across runs of the same seed (checked by --self-check). *)
type metric = { name : string; unit_ : string; kind : kind; exact : bool }

let e2e ?(exact = false) name unit_ = { name; unit_; kind = End_to_end; exact }
let layer ?(exact = false) name unit_ = { name; unit_; kind = Per_layer; exact }

let compile_phases =
  [ "minic.parse"; "minic.sema"; "ir.lower"; "opt.optimize"; "core.classify"
  ; "codegen.generate"; "verify.lint" ]

let metrics =
  [ e2e "setup_s" "s"
  ; e2e "wall_s" "s"
  ; e2e "retires_per_s" "1/s"
  ; e2e "iters_per_s" "1/s"
  ; e2e "peak_rss_mb" "MiB"
  ; e2e ~exact:true "sim_speedup_geomean" "x"
  ; e2e ~exact:true "paper_gap_pct" "%" ]
  @ List.map (fun p -> layer (p ^ "_ms") "ms") compile_phases
  @ [ layer ~exact:true "codegen.static_insns" "count"
    ; layer "sim.memory_create_us" "us"
    ; layer "sim.emulator_ns_per_retire" "ns"
    ; layer "sim.emulator_words_per_retire" "words"
    ; layer "sim.pipeline_ns_per_retire" "ns"
    ; layer "sim.pipeline_words_per_retire" "words"
    ; layer "predict.ns_per_retire" "ns"
    ; layer "predict.table_churn_ns_per_op" "ns"
    ; layer "predict.stride_update_ns_per_op" "ns"
    ; layer "harness.profile_ns_per_retire" "ns"
    ; layer "verify.oracle_ns_per_retire" "ns"
    ; layer "verify.fault_ms_per_plan" "ms"
    ; layer "fuzz.gen_us_per_program" "us"
    ; layer "fuzz.minic_gen_us_per_program" "us"
    ; layer ~exact:true "fuzz.retires_per_iter" "count"
    ; layer ~exact:true "sim.retires" "count"
    ; layer ~exact:true "sim.cycles" "count"
    ; layer ~exact:true "sim.cpi_busy" "cycles/insn" ]
  @ List.map
      (fun c -> layer ~exact:true ("sim.cpi_stall." ^ Stall.name c) "cycles/insn")
      Stall.all
  @ [ layer ~exact:true "predict.table_success_ratio" "ratio"
    ; layer ~exact:true "predict.calc_success_ratio" "ratio"
    ; layer ~exact:true "predict.bric_hit_ratio" "ratio"
    ; layer ~exact:true "predict.wasted_spec_per_load" "1/load"
    ; layer ~exact:true "sim.load_latency_avg" "cycles"
    ; layer ~exact:true "sim.dcache_miss_ratio" "ratio"
    ; layer "trace.overhead_s" "s" ]

let metrics_of kind = List.filter (fun m -> m.kind = kind) metrics

(* ---- workloads ---------------------------------------------------------- *)

type workload = Spec_grid | Media_single | Fuzz

let workloads = [ ("spec-grid", Spec_grid); ("media-single", Media_single); ("fuzz", Fuzz) ]

(* The programs are fixed and the seed orders the work: drawing other
   SPEC or MediaBench programs moves every end-to-end figure by more
   than its bound (README.md, "Seeds"). *)
type size = { spec : string list; media : string list; fuzz_iters : int }

let full =
  { spec = [ "072.sc"; "147.vortex"; "008.espresso" ]
  ; media = [ "G.721 Decode"; "GSM Decode" ]
  ; fuzz_iters = 25 }

(* The size --self-check runs at. *)
let tiny = { spec = [ "147.vortex" ]; media = [ "PGP Decode" ]; fuzz_iters = 5 }

(* Seeded Fisher-Yates shuffle. *)
let shuffle seed xs =
  let a = Array.of_list xs in
  let rng = Xorshift.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Xorshift.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* What one pass did: attempted operations, failure reasons, timed
   retired instructions, and per-program simulated speed-ups. *)
type outcome =
  { attempted : int
  ; errors : string list
  ; retires : int
  ; speedups : (string * float) list
  ; runs : int * int  (* fuzz: the campaign's oracle and fault runs *) }

(* A program the layer probes run on. *)
type subject =
  { label : string
  ; source : string option  (* MiniC source, when compiled from one *)
  ; program : Program.t
  ; budget : int  (* retire cap for full runs *)
  ; expected : string option }

let output_ok expected output =
  match expected with
  | Some e -> String.trim e = String.trim output
  | None -> true

(* ---- spec-grid: the paper's grid in miniature ---------------------------- *)

let grid_jobs ws =
  List.concat_map
    (fun w ->
      List.map (Engine.Job.make w) Config.Mechanism.all
      @ [ Engine.Job.make ~variant:Engine.Reclassified w dual_cc ])
    ws

let job_cycles results (w : Workload.t) mech variant =
  List.find_map
    (fun ((j : Engine.Job.t), (s : Pipeline.stats)) ->
      if j.workload == w && j.mechanism = mech && j.variant = variant then
        Some (float_of_int s.cycles)
      else None)
    results

let failure_text = function
  | Pool.Failures fs -> String.concat "; " (List.map snd fs)
  | e -> Printexc.to_string e

(* One grid job per Engine.run_jobs call, so a failure is charged to
   its own job; at -j 1 the work equals one batched call. *)
let spec_pass tr gate engine seed ws =
  let results, errors =
    List.fold_left
      (fun (rs, es) (job : Engine.Job.t) ->
        match
          Span.record tr ("job " ^ Engine.Job.name job) (fun () ->
              Engine.run_jobs engine [ job ])
        with
        | [ (_, stats) ] -> (
          match
            Gate.check gate ~workload:job.workload.Workload.name
              ~mechanism:job.mechanism
              ~reclassified:(job.variant = Engine.Reclassified) stats
          with
          | None -> ((job, stats) :: rs, es)
          | Some e -> ((job, stats) :: rs, e :: es))
        | _ -> (rs, (Engine.Job.name job ^ ": no result") :: es)
        | exception e -> (rs, failure_text e :: es))
      ([], []) (shuffle seed (grid_jobs ws))
  in
  let speedups =
    List.filter_map
      (fun (w : Workload.t) ->
        match
          ( job_cycles results w Config.No_early Engine.Classified
          , job_cycles results w dual_cc Engine.Reclassified )
        with
        | Some b, Some d -> Some (w.name, b /. d)
        | _ -> None)
      ws
  in
  { attempted = List.length (grid_jobs ws)
  ; errors = List.rev errors
  ; retires = List.fold_left (fun n (_, (s : Pipeline.stats)) -> n + s.instructions) 0 results
  ; speedups
  ; runs = (0, 0) }

(* ---- media-single: one timing model per long stream --------------------- *)

let media_pass tr gate engine ws =
  let runs =
    List.map
      (fun (w : Workload.t) ->
        Span.record tr ("stream " ^ w.name) (fun () ->
            let program = Engine.program engine w in
            (w, Span.record tr "sim.pipeline.run" (fun () -> Pipeline.run (cfg dual_cc) program))))
      ws
  in
  let errors =
    List.concat_map
      (fun ((w : Workload.t), (p, output)) ->
        (if output_ok w.expected_output output then []
         else [ w.name ^ ": output mismatch under dual-cc" ])
        @ Option.to_list
            (Gate.check gate ~workload:w.name ~mechanism:dual_cc ~reclassified:false
               (Pipeline.stats p)))
      runs
  in
  { attempted = List.length ws
  ; errors
  ; retires = List.fold_left (fun n (_, (p, _)) -> n + (Pipeline.stats p).instructions) 0 runs
  ; speedups =
      List.map
        (fun ((w : Workload.t), (p, _)) ->
          ( w.name
          , float_of_int (Gate.row gate w.name).baseline_cycles
            /. float_of_int (Pipeline.stats p).cycles ))
        runs
  ; runs = (0, 0) }

(* ---- fuzz: Campaign.run at jobs 1 ---------------------------------------- *)

(* Pass k's campaign seed: the benchmark seed itself for pass 0. *)
let chunk_seed seed k =
  if k = 0 then seed
  else
    let rng = Xorshift.create (seed lxor 0x5eed) in
    let s = ref 0 in
    for _ = 1 to k do s := Xorshift.next rng done;
    !s

let is_fault_iter i source =
  Campaign.default.fault_every > 0 && (i + 1) mod Campaign.default.fault_every = 0
  && source = None

(* The programs [Campaign.run] generates for this seed, rebuilt from
   its documented schedule: iteration seeds are the master Xorshift
   stream, and every [minic_every]-th iteration compiles [Gen.minic]. *)
let campaign_subjects tr seed iters =
  let master = Xorshift.create seed in
  let every = Campaign.default.minic_every in
  let rec go i acc =
    if i = iters then List.rev acc
    else
      let s = Xorshift.next master in
      let subject =
        if every > 0 && (i + 1) mod every = 0 then
          let src = Span.record tr "fuzz.minic_gen" (fun () -> Gen.minic s) in
          { label = Printf.sprintf "minic-%d" s
          ; source = Some src
          ; program = Compile.compile src
          ; budget = Gen.minic_budget
          ; expected = None }
        else
          let g =
            Span.record tr "fuzz.gen" (fun () ->
                Gen.program ~params:Campaign.default.gen_params s)
          in
          { label = Printf.sprintf "epa-%d" s
          ; source = None
          ; program = g.program
          ; budget = g.budget
          ; expected = None }
      in
      go (i + 1) (subject :: acc)
  in
  go 0 []

let pipelines_per_iter i (s : subject) =
  List.length Campaign.default.mechanisms + if is_fault_iter i s.source then 2 else 0

let retired (s : subject) =
  Emulator.retired (Emulator.run_program ~max_insns:s.budget s.program)

(* Timed retires of a campaign: each iteration times its program once
   per preset under the oracle, plus a fault baseline and plan. *)
let campaign_retires subjects =
  List.fold_left ( + ) 0 (List.mapi (fun i s -> pipelines_per_iter i s * retired s) subjects)

let fuzz_pass tr seed iters k =
  let (summary : Campaign.summary) =
    Span.record tr "fuzz.campaign" (fun () ->
        Campaign.run ~jobs { Campaign.default with seed = chunk_seed seed k; iters })
  in
  { attempted = summary.iterations
  ; errors =
      List.map (fun (f : Campaign.finding) -> f.f_detail) summary.findings
      @ List.map (fun (i, _) -> Printf.sprintf "iteration %d: pool failure" i) summary.failures
  ; retires = 0
  ; speedups = []
  ; runs = (summary.oracle_runs, summary.fault_runs) }

(* Untimed: count the pass's retires, check the campaign ran the
   documented schedule, and take pass 0's simulated speed-ups. *)
let fuzz_settle seed iters k o =
  let subjects = campaign_subjects None (chunk_seed seed k) iters in
  let faults = List.length (List.filteri (fun i s -> is_fault_iter i s.source) subjects) in
  let expected = (iters * List.length Campaign.default.mechanisms, faults) in
  let schedule_errors =
    if o.errors <> [] || o.runs = expected then []
    else [ "campaign ran another schedule than the one its retires are counted from" ]
  in
  let speedups =
    if k > 0 then []
    else
      List.map
        (fun s ->
          let b, _ = Pipeline.simulate ~max_insns:s.budget (cfg Config.No_early) s.program in
          let d, _ = Pipeline.simulate ~max_insns:s.budget (cfg dual_cc) s.program in
          (s.label, float_of_int b.cycles /. float_of_int d.cycles))
        subjects
  in
  { o with retires = campaign_retires subjects; errors = o.errors @ schedule_errors; speedups }

(* ---- per-workload plan ---------------------------------------------------- *)

type plan =
  { setup : Span.t option -> Engine.t
  ; pass : Span.t option -> Engine.t -> int -> outcome
  ; settle : int -> outcome -> outcome
  ; subjects : Span.t option -> Engine.t -> subject list
  ; reference : string -> float  (* the paper's speed-up for a program *) }

let fresh_engine tr ws =
  let engine = Engine.create ~jobs () in
  List.iter
    (fun (w : Workload.t) ->
      ignore (Span.record tr ("engine.program " ^ w.name) (fun () -> Engine.program engine w)))
    ws;
  engine

let workload_subjects engine ws =
  List.map
    (fun (w : Workload.t) ->
      { label = w.name
      ; source = Some w.source
      ; program = Engine.program engine w
      ; budget = max_int
      ; expected = w.expected_output })
    ws

let paper name = function
  | Some v -> v
  | None -> failwith ("no paper reference for " ^ name)

let plan size gate seed = function
  | Spec_grid ->
    let ws = List.map Suite.find size.spec in
    { setup = (fun tr -> fresh_engine tr ws)
    ; pass = (fun tr engine _ -> spec_pass tr gate engine seed ws)
    ; settle = (fun _ o -> o)
    ; subjects = (fun _ engine -> workload_subjects engine ws)
    ; reference =
        (fun n -> paper n (Option.map (fun r -> r.Paper_data.t3_speedup) (Paper_data.find_table3 n))) }
  | Media_single ->
    let ws = shuffle seed (List.map Suite.find size.media) in
    { setup = (fun tr -> fresh_engine tr ws)
    ; pass = (fun tr engine _ -> media_pass tr gate engine ws)
    ; settle = (fun _ o -> o)
    ; subjects = (fun _ engine -> workload_subjects engine ws)
    ; reference =
        (fun n -> paper n (Option.map (fun r -> r.Paper_data.t4_speedup) (Paper_data.find_table4 n))) }
  | Fuzz ->
    let iters = size.fuzz_iters in
    { setup =
        (fun tr ->
          (* the compile and lint work of pass 0's programs *)
          List.iter
            (fun s -> Lint.enforce s.program)
            (campaign_subjects tr seed iters);
          Engine.create ~jobs ())
    ; pass = (fun tr _ k -> fuzz_pass tr seed iters k)
    ; settle = fuzz_settle seed iters
    ; subjects = (fun tr _ -> campaign_subjects tr seed iters)
    ; reference = (fun _ -> Paper_data.fig5c_avg_dual_cc) }

(* ---- untraced run: end-to-end metrics ----------------------------------- *)

let setup_samples = 20

type measured =
  { setup_s : float list
  ; passes : (outcome * float) list  (* outcome, pass wall seconds *) }

(* Run passes while at least half of the next one, predicted from the
   last, fits in [seconds]; at least one.  Every pass sets up afresh, since the
   engine caches simulations, and [setup_samples] more set-ups are
   split between before and after the passes, so that one slow spell
   of a shared machine cannot hold them all. *)
let measure ~seconds plan =
  let setups = ref [] in
  let setup () =
    let engine, s = time (fun () -> plan.setup None) in
    setups := s :: !setups;
    engine
  in
  let extra_setups () = for _ = 1 to setup_samples / 2 do ignore (setup ()) done in
  extra_setups ();
  let rec loop k acc spent =
    let engine = setup () in
    let o, dt = time (fun () -> plan.pass None engine k) in
    let acc = (plan.settle k o, dt) :: acc in
    let spent = spent +. dt in
    if spent +. (dt /. 2.) <= float_of_int seconds then loop (k + 1) acc spent
    else List.rev acc
  in
  let passes = loop 0 [] 0. in
  extra_setups ();
  { setup_s = !setups; passes }

let geomean xs = exp (sum log xs /. float_of_int (max 1 (List.length xs)))

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ ->
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.
        | exception _ -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Simulated figures of pass 0, beside the paper's: speed-up geomean
   and mean absolute gap in percentage points of speed-up. *)
let simulated plan (o : outcome) =
  let s = List.map snd o.speedups in
  let gap =
    sum (fun (n, v) -> Float.abs (v -. plan.reference n) *. 100.) o.speedups
    /. float_of_int (max 1 (List.length o.speedups))
  in
  (geomean s, gap)

let end_to_end plan m =
  let rate f = median (List.map (fun (o, dt) -> fdiv (float_of_int (f o)) dt) m.passes) in
  let speedup, gap = simulated plan (fst (List.hd m.passes)) in
  let value = function
    | "setup_s" -> median m.setup_s
    | "wall_s" -> median (List.map snd m.passes)
    | "retires_per_s" -> rate (fun o -> o.retires)
    | "iters_per_s" -> rate (fun o -> o.attempted)
    | "peak_rss_mb" -> peak_rss_mb ()
    | "sim_speedup_geomean" -> speedup
    | "paper_gap_pct" -> gap
    | n -> failwith ("unmeasured metric " ^ n)
  in
  List.map (fun mt -> (mt, value mt.name)) (metrics_of End_to_end)

(* ---- traced run: per-layer metrics -------------------------------------- *)

let probe_cap = 1_000_000

(* Run [emu] to its end or [probe_cap] retires, whichever is first. *)
let run_capped ?observer emu =
  try Emulator.run ?observer ~max_insns:probe_cap emu with Emulator.Runaway _ -> ()

let compile_traced tr src =
  let r name f = Span.record tr name f in
  let ast = r "minic.parse" (fun () -> Elag_minic.Parser.parse src) in
  let typed = r "minic.sema" (fun () -> Elag_minic.Sema.check ast) in
  let ir = r "ir.lower" (fun () -> Elag_ir.Lower.lower_program typed) in
  let ir =
    r "opt.optimize" (fun () ->
        Elag_opt.Driver.optimize ~level:Compile.default_options.opt_level
          ~inline_threshold:Compile.default_options.inline_threshold ir)
  in
  r "core.classify" (fun () -> Elag_core.Classify.run ir);
  let program = r "codegen.generate" (fun () -> Elag_codegen.Codegen.generate ir) in
  r "verify.lint" (fun () -> Lint.enforce program);
  program

let compile_reps = 3

(* Each compile phase on every subject's source, [compile_reps] times;
   the phases must rebuild exactly what [Compile.compile] builds. *)
let probe_compile tr subjects =
  let listing p = Fmt.str "%a" Program.pp p in
  List.concat_map
    (fun s ->
      match s.source with
      | None -> []
      | Some src ->
        let programs = List.init compile_reps (fun _ -> compile_traced tr src) in
        Span.count tr "codegen.static_insns" (Program.length (List.hd programs));
        if listing (List.hd programs) = listing (Compile.compile src) then []
        else [ s.label ^ ": phase-by-phase compile differs from Compile.compile" ])
    subjects

(* Host cost per retire of each simulator layer, on the first
   [probe_cap] retires of every subject.  Emulators and pipelines are
   created outside the timed spans; creation is timed on its own. *)
let probe_retire tr s =
  for _ = 1 to 3 do
    ignore (Span.record tr "sim.emulator.create" (fun () -> Emulator.create s.program))
  done;
  let emu = Emulator.create s.program in
  Span.record tr "sim.emulate" (fun () -> run_capped emu);
  let n = Emulator.retired emu in
  let timed name mech =
    let p = Pipeline.create (cfg mech) in
    let emu = Emulator.create s.program in
    Span.record tr name (fun () -> run_capped ~observer:(Pipeline.observer p) emu);
    Span.count tr name (Emulator.retired emu);
    p
  in
  ignore (timed "sim.pipeline.baseline" Config.No_early);
  ignore (timed "sim.pipeline.dual-cc" dual_cc);
  let calc = timed "sim.pipeline.calc-16" calc16 in
  Span.record tr "harness.profile" (fun () ->
      try ignore (Profile.collect ~max_insns:probe_cap s.program)
      with Emulator.Runaway _ -> ());
  let oracle =
    Span.record tr "verify.oracle" (fun () ->
        try Some (Oracle.run ~max_insns:probe_cap (cfg dual_cc) s.program)
        with Emulator.Runaway _ -> None)
  in
  List.iter (fun name -> Span.count tr name n) [ "sim.emulate"; "harness.profile"; "verify.oracle" ];
  let errors =
    match oracle with
    | Some r when not (Oracle.ok r) -> [ s.label ^ ": oracle divergence" ]
    | _ -> []
  in
  (calc, errors)

let fault_targets =
  [| Fault.Table_scramble { slot = 3 }; Fault.Table_pa { slot = 5 }
   ; Fault.Table_state { slot = 2 }; Fault.Raddr_unbind
   ; Fault.Btb_target { slot = 1 }; Fault.Btb_scramble { slot = 1 } |]

(* A seeded fault plan under dual-cc on every campaign fault iteration,
   and the campaign's timed retires per iteration. *)
let probe_fuzz tr subjects =
  let c = cfg dual_cc in
  let errors =
    List.concat
      (List.mapi
         (fun i s ->
           if not (is_fault_iter i s.source) then []
           else
             let outcome =
               Span.record tr "verify.fault" (fun () ->
                   let baseline = Fault.baseline ~max_insns:s.budget c s.program in
                   let retired = max 1 baseline.base_retired in
                   Fault.run_plan ~max_insns:s.budget ~baseline c s.program
                     { Fault.name = "perfbench"
                     ; seed = i + 1
                     ; first = 1 + (i * 7919 mod retired)
                     ; period = Some (max 1 (retired / 5))
                     ; target = fault_targets.(i mod Array.length fault_targets) })
             in
             if outcome.output_ok && outcome.stream_ok then []
             else [ s.label ^ ": fault plan changed the architectural result" ])
         subjects)
  in
  Span.count tr "fuzz.retires" (campaign_retires subjects);
  Span.count tr "fuzz.iters" (List.length subjects);
  errors

let table_churn () =
  let t = Elag_predict.Addr_table.create 256 in
  for pc = 0 to 99 do
    for i = 0 to 99 do
      ignore (Elag_predict.Addr_table.peek t pc);
      ignore (Elag_predict.Addr_table.update t pc ((pc * 4096) + (i * 8)))
    done
  done

let stride_updates () =
  let e = Elag_predict.Stride_entry.allocate 0 in
  for i = 1 to 10_000 do
    ignore (Elag_predict.Stride_entry.update e (i * 8))
  done

let probe_predict tr =
  let loop name reps f =
    Span.record tr name (fun () -> for _ = 1 to reps do f () done);
    Span.count tr name (reps * 10_000)
  in
  loop "predict.table_churn" 100 table_churn;
  loop "predict.stride_update" 500 stride_updates

(* Deterministic counts from a full dual-cc run of every subject (and
   BRIC activity from its calc-16 probe run).  Address-table activity
   comes from Pipeline.stats, not Addr_table.stats: the pipeline only
   ever peeks, so the table's own probe/hit counters stay 0. *)
type counts =
  { mutable instructions : int
  ; mutable cycles : int
  ; mutable busy : int
  ; stalls : int array
  ; mutable table : int * int
  ; mutable calc : int * int
  ; mutable bric : int * int
  ; mutable wasted : int
  ; mutable loads : int
  ; mutable latency : int
  ; mutable dcache : int * int }

let sim_counts gate subjects calcs =
  let c =
    { instructions = 0; cycles = 0; busy = 0; stalls = Array.make Stall.cardinal 0
    ; table = (0, 0); calc = (0, 0); bric = (0, 0); wasted = 0; loads = 0; latency = 0
    ; dcache = (0, 0) }
  in
  let add (a, b) (x, y) = (a + x, b + y) in
  let errors =
    List.concat_map
      (fun s ->
        let p, output = Pipeline.run ~max_insns:s.budget (cfg dual_cc) s.program in
        let st = Pipeline.stats p in
        c.instructions <- c.instructions + st.instructions;
        c.cycles <- c.cycles + st.cycles;
        c.busy <- c.busy + Pipeline.busy_cycles p;
        List.iter
          (fun (cause, n) -> c.stalls.(Stall.index cause) <- c.stalls.(Stall.index cause) + n)
          (Pipeline.stall_breakdown p);
        c.table <- add c.table (st.table_successes, st.table_attempts);
        c.calc <- add c.calc (st.calc_successes, st.calc_attempts);
        c.wasted <- c.wasted + st.wasted_spec;
        c.loads <- c.loads + st.loads;
        c.latency <- c.latency + st.load_latency_sum;
        c.dcache <- add c.dcache (st.dcache_misses, st.dcache_accesses);
        (if output_ok s.expected output then [] else [ s.label ^ ": output mismatch" ])
        @ (if Pipeline.busy_cycles p + Pipeline.stall_total p = st.cycles then []
           else [ s.label ^ ": busy + stalls <> cycles" ])
        @
        match s.expected with
        | Some _ ->
          Option.to_list
            (Gate.check gate ~workload:s.label ~mechanism:dual_cc ~reclassified:false st)
        | None -> [])
      subjects
  in
  List.iter
    (fun p ->
      match Pipeline.bric_stats p with
      | Some b -> c.bric <- add c.bric (b.Elag_predict.Bric.br_hits, b.br_probes)
      | None -> ())
    calcs;
  (c, errors)

let ratio (a, b) = fdiv (float_of_int a) (float_of_int b)

type traced =
  { layer_values : (metric * float) list
  ; e2e_sim : float * float
  ; t_attempted : int
  ; t_errors : string list
  ; trace : Span.t }

let traced_run size gate seed workload =
  let plan = plan size gate seed workload in
  let name = fst (List.find (fun (_, w) -> w = workload) workloads) in
  (* untraced reference pass, then the same pass traced *)
  let o0, wall0 =
    let engine = plan.setup None in
    time (fun () -> plan.pass None engine 0)
  in
  let tr = Span.create () in
  let t = Some tr in
  let engine, o1, wall1 =
    Span.record t name (fun () ->
        let engine = Span.record t "setup" (fun () -> plan.setup t) in
        let o, dt = time (fun () -> Span.record t "pass" (fun () -> plan.pass t engine 0)) in
        (engine, o, dt))
  in
  let o1 = plan.settle 0 o1 in
  let errors = ref (o0.errors @ o1.errors) in
  let add es = errors := !errors @ es in
  Span.record t "probe" (fun () ->
      let subjects = plan.subjects t engine in
      add (probe_compile t subjects);
      let calcs =
        List.map
          (fun s ->
            Span.record t ("subject " ^ s.label) (fun () ->
                let calc, es = probe_retire t s in
                add es;
                calc))
          subjects
      in
      let fuzz_subjects =
        if workload = Fuzz then subjects else campaign_subjects t seed size.fuzz_iters
      in
      add (probe_fuzz t fuzz_subjects);
      probe_predict t;
      let c, es = sim_counts gate subjects calcs in
      add es;
      let self name = Span.totals tr name in
      let per_retire name =
        let s = self name in
        let n = float_of_int (Span.work tr name) in
        (fdiv s.self_s n *. 1e9, fdiv s.self_words n)
      in
      let emu_ns, emu_w = per_retire "sim.emulate" in
      let base_ns, base_w = per_retire "sim.pipeline.baseline" in
      let dual_ns, _ = per_retire "sim.pipeline.dual-cc" in
      let prof_ns, _ = per_retire "harness.profile" in
      let oracle_ns, _ = per_retire "verify.oracle" in
      let per_call scale name =
        let s = self name in
        fdiv s.self_s (float_of_int s.calls) *. scale
      in
      let per_op name = fdiv (self name).self_s (float_of_int (Span.work tr name)) *. 1e9 in
      let insns = float_of_int c.instructions in
      let cpi n = fdiv (float_of_int n) insns in
      let value m =
        match m.name with
        | "codegen.static_insns" -> float_of_int (Span.work tr "codegen.static_insns")
        | "sim.memory_create_us" -> per_call 1e6 "sim.emulator.create"
        | "sim.emulator_ns_per_retire" -> emu_ns
        | "sim.emulator_words_per_retire" -> emu_w
        | "sim.pipeline_ns_per_retire" -> base_ns -. emu_ns
        | "sim.pipeline_words_per_retire" -> base_w -. emu_w
        | "predict.ns_per_retire" -> dual_ns -. base_ns
        | "predict.table_churn_ns_per_op" -> per_op "predict.table_churn"
        | "predict.stride_update_ns_per_op" -> per_op "predict.stride_update"
        | "harness.profile_ns_per_retire" -> prof_ns
        | "verify.oracle_ns_per_retire" -> oracle_ns -. dual_ns
        | "verify.fault_ms_per_plan" -> per_call 1e3 "verify.fault"
        | "fuzz.gen_us_per_program" -> per_call 1e6 "fuzz.gen"
        | "fuzz.minic_gen_us_per_program" -> per_call 1e6 "fuzz.minic_gen"
        | "fuzz.retires_per_iter" ->
          fdiv (float_of_int (Span.work tr "fuzz.retires")) (float_of_int (Span.work tr "fuzz.iters"))
        | "sim.retires" -> insns
        | "sim.cycles" -> float_of_int c.cycles
        | "sim.cpi_busy" -> cpi c.busy
        | "predict.table_success_ratio" -> ratio c.table
        | "predict.calc_success_ratio" -> ratio c.calc
        | "predict.bric_hit_ratio" -> ratio c.bric
        | "predict.wasted_spec_per_load" -> ratio (c.wasted, c.loads)
        | "sim.load_latency_avg" -> ratio (c.latency, c.loads)
        | "sim.dcache_miss_ratio" -> ratio c.dcache
        | "trace.overhead_s" -> wall1 -. wall0
        | n -> (
          let phase = List.find_opt (fun p -> n = p ^ "_ms") compile_phases in
          let stall = List.find_opt (fun c -> n = "sim.cpi_stall." ^ Stall.name c) Stall.all in
          match (phase, stall) with
          | Some p, _ -> (self p).self_s *. 1e3 /. float_of_int compile_reps
          | None, Some cause -> cpi c.stalls.(Stall.index cause)
          | None, None -> failwith ("unmeasured metric " ^ n))
      in
      { layer_values = List.map (fun m -> (m, value m)) (metrics_of Per_layer)
      ; e2e_sim = simulated plan o1
      ; t_attempted = o0.attempted + o1.attempted + List.length subjects
      ; t_errors = !errors
      ; trace = tr })

(* ---- output ------------------------------------------------------------- *)

let git_commit () =
  let read path =
    match open_in path with
    | exception Sys_error _ -> None
    | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (String.trim (input_line ic)))
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head ->
    Option.value ~default:"unknown" (read (".git/" ^ String.sub head 5 (String.length head - 5)))
  | Some sha -> sha
  | None -> "unknown"

let provenance ~workload ~seed ~seconds ~trace =
  Json.Obj
    [ ("nproc", Json.Int (Domain.recommended_domain_count ()))
    ; ("ocaml", Json.String Sys.ocaml_version)
    ; ("jobs", Json.Int jobs)
    ; ("commit", Json.String (git_commit ()))
    ; ("workload", Json.String workload)
    ; ("seed", Json.Int seed)
    ; ("seconds", Json.Int seconds)
    ; ("trace", Json.Bool trace) ]

let result ~attempted ~errors values =
  let failed = List.length errors in
  Json.Obj
    [ ("correct", Json.Bool (failed = 0))
    ; ("attempted", Json.Int attempted)
    ; ("failed", Json.Int failed)
    ; ( "metrics"
      , Json.Obj
          (List.map
             (fun (m, v) ->
               (m.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.unit_) ]))
             values) ) ]

let print_table values =
  List.iter (fun (m, v) -> Printf.printf "  %-34s %16.6g %s\n" m.name v m.unit_) values

let trace_dir = ".perfbench"

let write_trace ~workload ~seed ~other tr =
  (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Printf.sprintf "%s/trace-%s-seed%d.json" trace_dir workload seed in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Json.output oc (Span.to_json tr ~other));
  path

(* Returns the exit code. *)
let run_workload ~name ~seed ~seconds ~trace =
  let workload = List.assoc name workloads in
  let gate = Gate.load () in
  let prov = provenance ~workload:name ~seed ~seconds ~trace in
  Printf.printf "provenance %s\n" (Json.to_string prov);
  let attempted, errors, values =
    if trace then begin
      let t = traced_run full gate seed workload in
      let path = write_trace ~workload:name ~seed ~other:prov t.trace in
      Printf.printf "trace written to %s (%d spans)\n" path t.trace.next;
      (t.t_attempted, t.t_errors, t.layer_values)
    end
    else begin
      let plan = plan full gate seed workload in
      let m = measure ~seconds plan in
      let outcomes = List.map fst m.passes in
      Printf.printf "%d set-ups; pass walls (s):%s\n" (List.length m.setup_s)
        (String.concat "" (List.map (fun (_, dt) -> Printf.sprintf " %.3f" dt) m.passes));
      ( List.fold_left (fun n o -> n + o.attempted) 0 outcomes
      , List.concat_map (fun o -> o.errors) outcomes
      , end_to_end plan m )
    end
  in
  print_table values;
  List.iter (Printf.printf "FAILED: %s\n") errors;
  Printf.printf "error_rate %.6g\n"
    (fdiv (float_of_int (List.length errors)) (float_of_int (max 1 attempted)));
  print_endline (Json.to_string (result ~attempted ~errors values));
  if errors = [] then 0 else 1

(* ---- self-check ----------------------------------------------------------- *)

let benchmark_units () =
  let j = Gate.read_json "BENCHMARK.json" in
  let section key =
    match Json.member key j with
    | Some (Json.List ms) ->
      List.map
        (fun m ->
          ( Option.value ~default:"?" (Option.bind (Json.member "name" m) Json.to_str)
          , Option.value ~default:"?" (Option.bind (Json.member "unit" m) Json.to_str) ))
        ms
    | _ -> []
  in
  (section "end_to_end", section "per_layer")

(* At the tiny size: every metric is emitted with the unit BENCHMARK.json
   declares, no run fails, and two traced runs agree exactly on every
   deterministic count. *)
let self_check seed =
  let gate = Gate.load () in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let declared_e2e, declared_layer = benchmark_units () in
  let check_declared what declared values =
    let emitted = List.map (fun (m, _) -> (m.name, m.unit_)) values in
    if List.sort compare emitted <> List.sort compare declared then
      fail "%s metrics differ from BENCHMARK.json" what;
    List.iter (fun (m, v) -> if not (Float.is_finite v) then fail "%s is not finite" m.name) values
  in
  List.iter
    (fun (name, workload) ->
      let plan = plan tiny gate seed workload in
      let m = measure ~seconds:0 plan in
      let e2e = end_to_end plan m in
      check_declared (name ^ " end-to-end") declared_e2e e2e;
      List.iter (fun (o, _) -> List.iter (fail "%s: %s" name) o.errors) m.passes;
      let a = traced_run tiny gate seed workload in
      let b = traced_run tiny gate seed workload in
      check_declared (name ^ " per-layer") declared_layer a.layer_values;
      List.iter (fail "%s: %s" name) (a.t_errors @ b.t_errors);
      List.iter2
        (fun (m, x) (_, y) ->
          if m.exact && Int64.bits_of_float x <> Int64.bits_of_float y then
            fail "%s: %s differs between traced runs (%g vs %g)" name m.name x y)
        a.layer_values b.layer_values;
      let exact_e2e = List.filter (fun (m, _) -> m.exact) e2e in
      let sa, ga = a.e2e_sim in
      List.iter
        (fun (m, v) ->
          let t = if m.name = "sim_speedup_geomean" then sa else ga in
          if Int64.bits_of_float v <> Int64.bits_of_float t then
            fail "%s: %s differs between untraced and traced runs" name m.name)
        exact_e2e;
      Printf.printf "%-13s checked: %d end-to-end, %d per-layer metrics\n%!" name
        (List.length e2e) (List.length a.layer_values))
    workloads;
  List.iter (Printf.printf "SELF-CHECK FAILED: %s\n") (List.rev !problems);
  if !problems = [] then (print_endline "self-check ok"; 0) else 1

(* ---- pins ------------------------------------------------------------------- *)

(* Regenerate perfbench/pins.json: cycles of every SPEC grid job that
   BENCH_pipeline.json does not already pin. *)
let write_pins () =
  let engine = Engine.create ~jobs () in
  let rows = Engine.run_jobs engine (grid_jobs Suite.spec) in
  let pinned_elsewhere (j : Engine.Job.t) =
    j.variant = Engine.Classified && (j.mechanism = Config.No_early || j.mechanism = dual_cc)
  in
  let cycles =
    List.filter_map
      (fun ((j : Engine.Job.t), (s : Pipeline.stats)) ->
        if pinned_elsewhere j then None else Some (Engine.Job.name j, Json.Int s.cycles))
      rows
  in
  let oc = open_out Gate.pins_file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Json.output ~pretty:true oc
        (Json.Obj [ ("schema", Json.String "elag.perfbench.pins.v1"); ("cycles", Json.Obj cycles) ]);
      output_char oc '\n');
  List.iter
    (fun (w : Workload.t) ->
      let c mech variant = Option.get (job_cycles rows w mech variant) in
      let s = c Config.No_early Engine.Classified /. c dual_cc Engine.Reclassified in
      let paper = Option.map (fun r -> r.Paper_data.t3_speedup) (Paper_data.find_table3 w.name) in
      Printf.printf "%-14s dual-cc+prof speedup %.4f paper %.2f\n" w.name s
        (Option.value ~default:0. paper))
    Suite.spec;
  Printf.printf "wrote %s (%d pins)\n" Gate.pins_file (List.length cycles);
  0

(* ---- command line ----------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 30 and trace = ref 0 in
  let mode = ref `Run in
  let spec =
    [ ("--workload", Arg.Set_string workload, "W spec-grid | media-single | fuzz")
    ; ("--seed", Arg.Set_int seed, "N input seed (default 0)")
    ; ("--seconds", Arg.Set_int seconds, "S measuring time of an untraced run (default 30)")
    ; ("--trace", Arg.Set_int trace, "0|1 1 = traced run with per-layer metrics")
    ; ("--self-check", Arg.Unit (fun () -> mode := `Self_check), " tiny-size consistency check")
    ; ("--write-pins", Arg.Unit (fun () -> mode := `Write_pins), " regenerate perfbench/pins.json") ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let code =
    match !mode with
    | `Self_check -> self_check !seed
    | `Write_pins -> write_pins ()
    | `Run ->
      if not (List.mem_assoc !workload workloads) then begin
        prerr_endline ("unknown workload " ^ !workload ^ "; " ^ usage);
        2
      end
      else if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "--trace takes 0 or 1";
        2
      end
      else run_workload ~name:!workload ~seed:!seed ~seconds:(max 0 !seconds) ~trace:(!trace = 1)
  in
  exit code
