(* Measurement harness.  The paper's tables and figures come from
   [elag_experiments]; this driver keeps the measurements beside them:

     dune exec bench/main.exe ablation     design-choice ablations from
                                           DESIGN.md (issue width, cache
                                           ways, miss penalty, unroll,
                                           table size)
     dune exec bench/main.exe report       write BENCH_pipeline.json:
                                           per-workload cycles/IPC/speedup +
                                           stall-cause breakdown under the
                                           dual-cc scheme, with full config
                                           provenance, so the perf trajectory
                                           is trackable across PRs
     dune exec bench/main.exe engine       write BENCH_engine.json: full
                                           evaluation-grid sweep serial vs
                                           parallel, wall-clock for both, and
                                           a byte-identity check of the two
                                           sweep artifacts

   All modes take -j N to size the engine's worker pool (default:
   Domain.recommended_domain_count). *)

module Experiments = Elag_engine.Experiments
module Engine = Elag_engine.Engine
module Pool = Elag_engine.Pool
module Compile = Elag_harness.Compile
module Config = Elag_sim.Config
module Pipeline = Elag_sim.Pipeline
module Suite = Elag_workloads.Suite
module Workload = Elag_workloads.Workload

(* --- ablations ----------------------------------------------------------- *)

let ablation_panel = List.map Suite.find [ "130.li"; "072.sc"; "023.eqntott" ]

let dual_cc = Config.Mechanism.of_string_exn "dual-cc"

(* One printed row: [label], then [f w] for every panel workload, the
   workloads computed on the engine's pool. *)
let print_row engine label f =
  print_string label;
  List.iter2
    (fun (w : Workload.t) v -> Printf.printf "  %s %.3f" w.Workload.name v)
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

let run_ablation engine =
  Printf.printf "Ablations: dual-path compiler-directed speedup vs design choices\n\n";
  (* Oracle bound: if every load had zero latency and never missed, how
     fast could ANY early address-generation scheme possibly be?  The
     gap between dual-cc and this bound is the paper's headroom. *)
  let oracle = Config.make ~load_latency:0 ~miss_penalty:0 () in
  print_row engine "speedup ceiling (zero-latency, never-missing loads)\n " (fun w ->
      float_of_int (Engine.base_cycles engine w)
      /. float_of_int (Engine.base_cycles ~config:oracle engine w));
  Printf.printf "\n\n";
  let rows title label args speedup =
    Printf.printf "%s\n" title;
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

(* --- machine-readable pipeline report ------------------------------------ *)

module Json = Elag_telemetry.Json
module Stall = Elag_telemetry.Stall

let bench_report_file = "BENCH_pipeline.json"

(* One entry per workload: baseline and dual-cc cycle counts, IPC,
   speedup, and the dual-cc stall-cause breakdown.  The stall columns
   say not just *that* a workload regressed but *where the cycles
   went*, which is what makes the artifact diffable across PRs.
   Workloads run on the engine's pool; rows are merged (and printed)
   in suite order, so the artifact is identical at every -j. *)
let run_report engine =
  let workload_row (w : Workload.t) =
    let program = Engine.program engine w in
    let cfg mech = Config.with_mechanism mech Config.default in
    let base, _ = Pipeline.run (cfg Config.No_early) program in
    let dual, _ = Pipeline.run (cfg dual_cc) program in
    let bs = Pipeline.stats base and ds = Pipeline.stats dual in
    let ipc (s : Pipeline.stats) =
      float_of_int s.Pipeline.instructions /. float_of_int (max 1 s.Pipeline.cycles)
    in
    let line =
      Printf.sprintf "  %-16s base=%8d dual-cc=%8d speedup=%.3f" w.Workload.name
        bs.Pipeline.cycles ds.Pipeline.cycles
        (float_of_int bs.Pipeline.cycles /. float_of_int ds.Pipeline.cycles)
    in
    let json =
      Json.Obj
        [ ("name", Json.String w.Workload.name)
        ; ("suite", Json.String (Workload.suite_name w.Workload.suite))
        ; ("instructions", Json.Int ds.Pipeline.instructions)
        ; ("baseline_cycles", Json.Int bs.Pipeline.cycles)
        ; ("cycles", Json.Int ds.Pipeline.cycles)
        ; ("ipc", Json.Float (ipc ds))
        ; ( "speedup"
          , Json.Float
              (float_of_int bs.Pipeline.cycles /. float_of_int (max 1 ds.Pipeline.cycles))
          )
        ; ( "stalls"
          , Json.Obj
              (("busy", Json.Int (Pipeline.busy_cycles dual))
              :: List.map
                   (fun (cause, n) -> (Stall.name cause, Json.Int n))
                   (Pipeline.stall_breakdown dual)) ) ]
    in
    (line, json)
  in
  Printf.printf "pipeline report (baseline vs %s):\n" (Config.mechanism_name dual_cc);
  let rows = Engine.map engine workload_row Suite.all in
  List.iter (fun (line, _) -> print_endline line) rows;
  let doc =
    Json.Obj
      [ ("schema", Json.String "elag.bench.v1")
      ; ("mechanism", Json.String (Config.mechanism_name dual_cc))
      ; ("config", Config.to_json (Config.with_mechanism dual_cc Config.default))
      ; ("workloads", Json.List (List.map snd rows)) ]
  in
  let oc = open_out bench_report_file in
  Json.output ~pretty:true oc doc;
  close_out oc;
  Printf.printf "wrote %s\n" bench_report_file

(* --- engine wall-clock benchmark ----------------------------------------- *)

let bench_engine_file = "BENCH_engine.json"

(* The same full evaluation-grid sweep, once on a single-domain engine
   and once on the pool, with fresh caches each time.  The two sweep
   artifacts must be byte-identical (cycle counts and all); the wall
   clocks and available core count are recorded so the speedup claim
   is honest about the hardware it ran on. *)
let run_engine_bench jobs =
  let sweep jobs =
    let engine = Engine.create ~jobs () in
    let t0 = Unix.gettimeofday () in
    let json = Json.to_string ~pretty:true (Engine.sweep_json engine (Experiments.grid ())) in
    (json, Unix.gettimeofday () -. t0)
  in
  let n_jobs = List.length (Experiments.grid ()) in
  Printf.printf "engine sweep: %d grid jobs, serial then -j %d\n%!" n_jobs jobs;
  let serial_json, serial_s = sweep 1 in
  Printf.printf "  serial:   %.1fs\n%!" serial_s;
  let parallel_json, parallel_s = sweep jobs in
  Printf.printf "  -j %-5d: %.1fs (%.2fx)\n%!" jobs parallel_s (serial_s /. parallel_s);
  let identical = String.equal serial_json parallel_json in
  Printf.printf "  artifacts byte-identical: %b\n" identical;
  let doc =
    Json.Obj
      [ ("schema", Json.String "elag.bench.engine.v1")
      ; ("grid_jobs", Json.Int n_jobs)
      ; ("cores", Json.Int (Pool.default_jobs ()))
      ; ("jobs", Json.Int jobs)
      ; ("serial_seconds", Json.Float serial_s)
      ; ("parallel_seconds", Json.Float parallel_s)
      ; ("speedup", Json.Float (serial_s /. parallel_s))
      ; ("byte_identical", Json.Bool identical) ]
  in
  let oc = open_out bench_engine_file in
  Json.output ~pretty:true oc doc;
  close_out oc;
  Printf.printf "wrote %s\n" bench_engine_file;
  if not identical then exit 1

(* --- entry point ----------------------------------------------------------- *)

let () =
  let jobs = ref (Pool.default_jobs ()) in
  let mode = ref "" in
  let rec parse = function
    | [] -> ()
    | "-j" :: n :: rest ->
      (jobs :=
         match int_of_string_opt n with
         | Some n when n > 0 -> n
         | _ ->
           prerr_endline "-j expects a positive integer";
           exit 1);
      parse rest
    | arg :: rest ->
      mode := arg;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let engine () = Engine.create ~jobs:!jobs () in
  match !mode with
  | "ablation" -> run_ablation (engine ())
  | "report" -> run_report (engine ())
  | "engine" -> run_engine_bench !jobs
  | other ->
    if other <> "" then prerr_endline ("unknown mode: " ^ other);
    prerr_endline "usage: bench/main.exe (ablation | report | engine) [-j N]";
    prerr_endline "paper tables and figures: bin/elag_experiments.exe";
    exit 1
