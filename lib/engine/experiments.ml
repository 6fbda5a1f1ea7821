(* Generators for every table and figure in the paper's evaluation
   section, each printing measured values side by side with the
   paper's, plus the design-choice ablations and the committed
   pipeline report.  Row data is computed through an Engine handle —
   rows in parallel on its pool, merged in suite order — and printed
   only after the parallel phase, so stdout is deterministic. *)

module Config = Elag_sim.Config
module Pipeline = Elag_sim.Pipeline
module Report = Elag_sim.Report
module Workload = Elag_workloads.Workload
module Suite = Elag_workloads.Suite
module Paper_data = Elag_harness.Paper_data
module Compile = Elag_harness.Compile
module Json = Elag_telemetry.Json
module Stall = Elag_telemetry.Stall

let pf = Printf.printf

(* Arithmetic mean; an empty list is a bug, not a silent zero. *)
let mean = function
  | [] -> invalid_arg "Experiments.mean: empty list"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let opt_f = function Some v -> Printf.sprintf "%6.2f" v | None -> "     -"

let dual_cc = Config.Dual { table_entries = 256; selection = Config.Compiler_directed }

(* The full evaluation grid (Figures 5a-c, Tables 2-4): every SPEC
   workload crossed with the canonical mechanism list plus the
   reclassified dual-path point of Table 3; every MediaBench workload
   under the points Table 4 reports (baseline and dual-cc). *)
let grid () =
  List.concat_map
    (fun w ->
      List.map (fun m -> Engine.Job.make w m) Config.Mechanism.all
      @ [ Engine.Job.make ~variant:Engine.Reclassified w dual_cc ])
    Suite.spec
  @ List.concat_map
      (fun w -> [ Engine.Job.make w Config.No_early; Engine.Job.make w dual_cc ])
      Suite.media

(* --- Table 2 ---------------------------------------------------------- *)

type table2_row =
  { name : string
  ; loads_m : float
  ; dist : Engine.distribution }

let table2_rows engine =
  Engine.map engine
    (fun w ->
      let prof = Engine.profile engine w in
      { name = w.Workload.name
      ; loads_m = float_of_int (Elag_harness.Profile.total_loads prof) /. 1_000_000.
      ; dist = Engine.distribution engine w })
    Suite.spec

let print_table2 engine =
  pf "Table 2: load characteristics and prediction rates (measured | paper)\n";
  pf "%-14s %6s | %-23s | %-23s | %-15s | %-15s\n" "benchmark" "loadsM"
    "static %  NT/PD/EC" "dynamic %  NT/PD/EC" "NT rate" "PD rate";
  let rows = table2_rows engine in
  List.iter
    (fun r ->
      let d = r.dist in
      let p = Paper_data.find_table2 r.name in
      let paper3 f1 f2 f3 =
        match p with
        | Some p -> Printf.sprintf "%4.0f/%4.0f/%4.0f" (f1 p) (f2 p) (f3 p)
        | None -> "      -"
      in
      let paper1 f = match p with Some p -> Printf.sprintf "%5.1f" (f p) | None -> "  -" in
      pf "%-14s %6.1f | %4.0f/%4.0f/%4.0f %s | %4.0f/%4.0f/%4.0f %s | %s %s | %s %s\n"
        r.name r.loads_m d.Engine.static_nt d.Engine.static_pd d.Engine.static_ec
        (paper3 (fun p -> p.Paper_data.t2_static_nt) (fun p -> p.Paper_data.t2_static_pd)
           (fun p -> p.Paper_data.t2_static_ec))
        d.Engine.dynamic_nt d.Engine.dynamic_pd d.Engine.dynamic_ec
        (paper3 (fun p -> p.Paper_data.t2_dynamic_nt) (fun p -> p.Paper_data.t2_dynamic_pd)
           (fun p -> p.Paper_data.t2_dynamic_ec))
        (opt_f d.Engine.rate_nt) (paper1 (fun p -> p.Paper_data.t2_rate_nt))
        (opt_f d.Engine.rate_pd) (paper1 (fun p -> p.Paper_data.t2_rate_pd)))
    rows;
  let avg f = mean (List.map f rows) in
  pf "%-14s %6.1f | %4.0f/%4.0f/%4.0f                | %4.0f/%4.0f/%4.0f\n" "average"
    (avg (fun r -> r.loads_m))
    (avg (fun r -> r.dist.Engine.static_nt))
    (avg (fun r -> r.dist.Engine.static_pd))
    (avg (fun r -> r.dist.Engine.static_ec))
    (avg (fun r -> r.dist.Engine.dynamic_nt))
    (avg (fun r -> r.dist.Engine.dynamic_pd))
    (avg (fun r -> r.dist.Engine.dynamic_ec))

(* --- Figure 5a: table-only speedups ----------------------------------- *)

let fig5a_sizes = [ 64; 128; 256 ]

let fig5a_speedups engine =
  Engine.map engine
    (fun w ->
      let per_size filtered =
        List.map
          (fun entries ->
            Engine.speedup engine w
              (Config.Table_only { entries; compiler_filtered = filtered }))
          fig5a_sizes
      in
      (w.Workload.name, per_size false, per_size true))
    Suite.spec

let print_fig5a engine =
  pf "Figure 5a: speedup, table-based prediction only\n";
  pf "%-14s | %-26s | %-26s\n" "benchmark" "hardware-only 64/128/256"
    "compiler-directed 64/128/256";
  let rows = fig5a_speedups engine in
  List.iter
    (fun (name, hw, cc) ->
      let s l = String.concat "/" (List.map (Printf.sprintf "%.2f") l) in
      pf "%-14s | %-26s | %-26s\n" name (s hw) (s cc))
    rows;
  let avg sel i =
    mean (List.map (fun (_, hw, cc) -> List.nth (sel (hw, cc)) i) rows)
  in
  pf "%-14s | %.2f/%.2f/%.2f             | %.2f/%.2f/%.2f\n" "average"
    (avg fst 0) (avg fst 1) (avg fst 2) (avg snd 0) (avg snd 1) (avg snd 2)

(* --- Figure 5b: calc-only speedups ------------------------------------ *)

let fig5b_sizes = [ 4; 8; 16 ]

let fig5b_speedups engine =
  Engine.map engine
    (fun w ->
      ( w.Workload.name
      , List.map
          (fun n -> Engine.speedup engine w (Config.Calc_only { bric_entries = n }))
          fig5b_sizes ))
    Suite.spec

let print_fig5b engine =
  pf "Figure 5b: speedup, early address calculation only (BRIC 4/8/16)\n";
  let rows = fig5b_speedups engine in
  List.iter
    (fun (name, l) ->
      pf "%-14s | %s\n" name
        (String.concat "/" (List.map (Printf.sprintf "%.2f") l)))
    rows;
  let avg i = mean (List.map (fun (_, l) -> List.nth l i) rows) in
  pf "%-14s | %.2f/%.2f/%.2f\n" "average" (avg 0) (avg 1) (avg 2)

(* --- Figure 5c: best hardware-only vs dual-path ------------------------ *)

type fig5c_row =
  { f5c_name : string
  ; table256 : float
  ; calc16 : float
  ; dual_hw : float
  ; dual_cc : float
  ; dual_cc_prof : float }

let fig5c_rows engine =
  Engine.map engine
    (fun w ->
      { f5c_name = w.Workload.name
      ; table256 =
          Engine.speedup engine w
            (Config.Table_only { entries = 256; compiler_filtered = false })
      ; calc16 = Engine.speedup engine w (Config.Calc_only { bric_entries = 16 })
      ; dual_hw =
          Engine.speedup engine w
            (Config.Dual { table_entries = 256; selection = Config.Hardware_selected })
      ; dual_cc = Engine.speedup engine w dual_cc
      ; dual_cc_prof = Engine.speedup engine w ~variant:Engine.Reclassified dual_cc })
    Suite.spec

let print_fig5c engine =
  pf "Figure 5c: speedup, hardware-only vs dual-path early address generation\n";
  pf "%-14s | %-9s %-8s %-8s %-8s %-9s\n" "benchmark" "table-256" "calc-16"
    "dual-hw" "dual-cc" "dual-cc+p";
  let rows = fig5c_rows engine in
  List.iter
    (fun r ->
      pf "%-14s | %-9.2f %-8.2f %-8.2f %-8.2f %-9.2f\n" r.f5c_name r.table256
        r.calc16 r.dual_hw r.dual_cc r.dual_cc_prof)
    rows;
  pf "%-14s | %-9.2f %-8.2f %-8.2f %-8.2f %-9.2f\n" "average"
    (mean (List.map (fun r -> r.table256) rows))
    (mean (List.map (fun r -> r.calc16) rows))
    (mean (List.map (fun r -> r.dual_hw) rows))
    (mean (List.map (fun r -> r.dual_cc) rows))
    (mean (List.map (fun r -> r.dual_cc_prof) rows));
  pf "paper averages: dual-hw %.2f, dual-cc %.2f, dual-cc+profile %.2f\n"
    Paper_data.fig5c_avg_dual_hw Paper_data.fig5c_avg_dual_cc
    Paper_data.fig5c_avg_dual_cc_profiled

(* --- Table 3: profile-guided classification ---------------------------- *)

type table3_row =
  { t3_name : string
  ; t3_speedup : float
  ; t3_dist : Engine.distribution }

let table3_rows engine =
  Engine.map engine
    (fun w ->
      { t3_name = w.Workload.name
      ; t3_speedup = Engine.speedup engine w ~variant:Engine.Reclassified dual_cc
      ; t3_dist = Engine.distribution engine ~variant:Engine.Reclassified w })
    Suite.spec

let print_table3 engine =
  pf "Table 3: profile-guided classification (threshold 60%%) (measured | paper)\n";
  pf "%-14s | %-15s | %-15s | %-15s | %-15s | %-15s\n" "benchmark" "speedup"
    "static PD %" "dynamic PD %" "NT rate" "PD rate";
  let rows = table3_rows engine in
  List.iter
    (fun r ->
      let p = Paper_data.find_table3 r.t3_name in
      let pp1 f = match p with Some p -> Printf.sprintf "%5.2f" (f p) | None -> "    -" in
      let d = r.t3_dist in
      pf "%-14s | %5.2f %s | %6.2f %s | %6.2f %s | %s %s | %s %s\n" r.t3_name
        r.t3_speedup (pp1 (fun p -> p.Paper_data.t3_speedup))
        d.Engine.static_pd (pp1 (fun p -> p.Paper_data.t3_static_pd))
        d.Engine.dynamic_pd (pp1 (fun p -> p.Paper_data.t3_dynamic_pd))
        (opt_f d.Engine.rate_nt) (pp1 (fun p -> p.Paper_data.t3_rate_nt))
        (opt_f d.Engine.rate_pd) (pp1 (fun p -> p.Paper_data.t3_rate_pd)))
    rows;
  pf "%-14s | %5.2f (paper 1.38)\n" "average"
    (mean (List.map (fun r -> r.t3_speedup) rows))

(* --- Table 4: MediaBench ------------------------------------------------ *)

type table4_row =
  { t4_name : string
  ; t4_loads_m : float
  ; t4_dist : Engine.distribution
  ; t4_speedup : float }

let table4_rows engine =
  Engine.map engine
    (fun w ->
      let prof = Engine.profile engine w in
      { t4_name = w.Workload.name
      ; t4_loads_m = float_of_int (Elag_harness.Profile.total_loads prof) /. 1_000_000.
      ; t4_dist = Engine.distribution engine w
      ; t4_speedup = Engine.speedup engine w dual_cc })
    Suite.media

let print_table4 engine =
  pf "Table 4: MediaBench characteristics and speedup (measured | paper)\n";
  pf "%-14s %6s | %-20s | %-20s | %-13s | %-13s | %-13s\n" "benchmark" "loadsM"
    "static % NT/PD/EC" "dynamic % NT/PD/EC" "NT rate" "PD rate" "speedup";
  let rows = table4_rows engine in
  List.iter
    (fun r ->
      let d = r.t4_dist in
      let p = Paper_data.find_table4 r.t4_name in
      let pp1 f = match p with Some p -> Printf.sprintf "%5.2f" (f p) | None -> "    -" in
      pf "%-14s %6.1f | %4.0f/%4.0f/%4.0f | %4.0f/%4.0f/%4.0f | %s %s | %s %s | %5.2f %s\n"
        r.t4_name r.t4_loads_m d.Engine.static_nt d.Engine.static_pd
        d.Engine.static_ec d.Engine.dynamic_nt d.Engine.dynamic_pd
        d.Engine.dynamic_ec (opt_f d.Engine.rate_nt)
        (pp1 (fun p -> p.Paper_data.t4_rate_nt)) (opt_f d.Engine.rate_pd)
        (pp1 (fun p -> p.Paper_data.t4_rate_pd)) r.t4_speedup
        (pp1 (fun p -> p.Paper_data.t4_speedup)))
    rows;
  pf "%-14s        |                      |                      |        |        | %5.2f (paper 1.19)\n"
    "average"
    (mean (List.map (fun r -> r.t4_speedup) rows))

let run_all engine =
  (* One flat parallel sweep over the whole grid: finer-grained jobs
     than per-table row maps, so the pool stays saturated; the table
     printers below then run entirely out of cache. *)
  ignore (Engine.run_jobs engine (grid ()));
  print_table2 engine;
  pf "\n";
  print_fig5a engine;
  pf "\n";
  print_fig5b engine;
  pf "\n";
  print_fig5c engine;
  pf "\n";
  print_table3 engine;
  pf "\n";
  print_table4 engine

(* --- Ablations: design choices ------------------------------------------ *)

let ablation_panel = List.map Suite.find [ "130.li"; "072.sc"; "023.eqntott" ]

(* One printed row: [label], then [f w] for every panel workload, the
   workloads computed on the engine's pool. *)
let print_row engine label f =
  print_string label;
  List.iter2
    (fun (w : Workload.t) v -> pf "  %s %.3f" w.Workload.name v)
    ablation_panel
    (Engine.map engine f ablation_panel)

(* The unroll row recompiles each workload, and the engine caches one
   program per workload, so these programs are simulated directly. *)
let unrolled_speedup factor (w : Workload.t) =
  let options = { Compile.default_options with unroll_factor = factor } in
  let program = Compile.compile ~options w.Workload.source in
  Elag_verify.Lint.enforce program;
  let cycles mech =
    (fst (Pipeline.simulate (Config.with_mechanism mech Config.default) program))
      .Pipeline.cycles
  in
  float_of_int (cycles Config.No_early) /. float_of_int (cycles dual_cc)

let print_ablation engine =
  pf "Ablations: dual-path compiler-directed speedup vs design choices\n\n";
  (* Oracle bound: if every load had zero latency and never missed, how
     fast could ANY early address-generation scheme possibly be?  The
     gap between dual-cc and this bound is the paper's headroom. *)
  let oracle = { Config.default with load_latency = 0; miss_penalty = 0 } in
  print_row engine "speedup ceiling (zero-latency, never-missing loads)\n " (fun w ->
      float_of_int (Engine.base_cycles engine w)
      /. float_of_int (Engine.base_cycles ~config:oracle engine w));
  pf "\n\n";
  let rows title label args speedup =
    pf "%s\n" title;
    List.iter
      (fun arg ->
        print_row engine (label arg) (speedup arg);
        print_newline ())
      args
  in
  let under with_ v w = Engine.speedup ~config:(with_ v Config.default) engine w dual_cc in
  rows "issue width (paper: 6)" (Printf.sprintf "  width %d:") [ 2; 4; 6; 8 ]
    (under Config.with_issue_width);
  rows "\ncache associativity (paper: direct-mapped)" (Printf.sprintf "  %d-way:")
    [ 1; 2; 4 ] (under Config.with_cache_ways);
  rows "\ncache miss penalty (paper: 12 cycles)" (Printf.sprintf "  penalty %2d:")
    [ 4; 12; 30 ] (under Config.with_miss_penalty);
  rows "\nunroll factor at compile time (default: 4)" (Printf.sprintf "  unroll %d:")
    [ 0; 4; 8 ] unrolled_speedup;
  rows "\ntable size under the dual-path scheme" (Printf.sprintf "  table %4d:")
    [ 16; 64; 256; 1024 ] (fun entries w ->
      Engine.speedup engine w
        (Config.Dual { table_entries = entries; selection = Config.Compiler_directed }))

(* --- Pipeline report: BENCH_pipeline.json ------------------------------- *)

let pipeline_report_file = "BENCH_pipeline.json"

(* One entry per workload: baseline and dual-cc cycle counts, IPC,
   speedup, and the dual-cc stall-cause breakdown.  The stall columns
   say not just *that* a workload regressed but *where the cycles
   went*, which is what makes the artifact diffable across changes. *)
let write_pipeline_report engine =
  let workload_row (w : Workload.t) =
    let base = Engine.base_cycles engine w in
    let dual, _ =
      Pipeline.run (Config.with_mechanism dual_cc Config.default) (Engine.program engine w)
    in
    let ds = Pipeline.stats dual in
    let speedup = float_of_int base /. float_of_int ds.Pipeline.cycles in
    let line =
      Printf.sprintf "  %-16s base=%8d dual-cc=%8d speedup=%.3f" w.Workload.name base
        ds.Pipeline.cycles speedup
    in
    let json =
      Json.Obj
        [ ("name", Json.String w.Workload.name)
        ; ("suite", Json.String (Workload.suite_name w.Workload.suite))
        ; ("instructions", Json.Int ds.Pipeline.instructions)
        ; ("baseline_cycles", Json.Int base)
        ; ("cycles", Json.Int ds.Pipeline.cycles)
        ; ("ipc", Json.Float (Report.ipc ds))
        ; ("speedup", Json.Float speedup)
        ; ( "stalls"
          , Json.Obj
              (("busy", Json.Int (Pipeline.busy_cycles dual))
              :: List.map
                   (fun (cause, n) -> (Stall.name cause, Json.Int n))
                   (Pipeline.stall_breakdown dual)) ) ]
    in
    (line, json)
  in
  pf "pipeline report (baseline vs %s):\n" (Config.mechanism_name dual_cc);
  let rows = Engine.map engine workload_row Suite.all in
  List.iter (fun (line, _) -> print_endline line) rows;
  let doc =
    Json.Obj
      [ ("schema", Json.String "elag.bench.v1")
      ; ("mechanism", Json.String (Config.mechanism_name dual_cc))
      ; ("config", Config.to_json (Config.with_mechanism dual_cc Config.default))
      ; ("workloads", Json.List (List.map snd rows)) ]
  in
  let oc = open_out pipeline_report_file in
  Json.output ~pretty:true oc doc;
  close_out oc;
  pf "wrote %s\n" pipeline_report_file
