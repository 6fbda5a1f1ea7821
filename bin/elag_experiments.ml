(* Regenerate every table and figure from the paper's evaluation
   section on the parallel experiment engine.  Usage:

     elag_experiments [-j N] [artifact]
       artifact: table2 | fig5a | fig5b | fig5c | table3 | table4 | all
               | ablation | report
               | lint | faults | verify-smoke | verify | fuzz
       -j N:     worker domains (default: Domain.recommended_domain_count)

   [all] prints every table and figure.  [ablation] prints the
   dual-path speedup against design choices (issue width, cache ways,
   miss penalty, unroll factor, table size) below the zero-latency
   ceiling.  [report] prints baseline and dual-cc cycles per workload
   and writes BENCH_pipeline.json in the current directory: the
   committed behaviour contract, with the dual-cc stall breakdown and
   full config provenance.  Neither is part of [all].

   The verification artifacts run the robustness suites instead of the
   paper tables: [lint] statically checks every compiled workload,
   [faults] runs the curated predictor fault-injection matrix,
   [verify-smoke] the CI subset of it plus lint, and [verify] all
   three suites including the whole-suite differential oracle.  Each
   prints per-item lines and exits 1 if anything fails.

   [fuzz] runs a differential fuzzing campaign (random lint-clean
   EPA-32 programs and random MiniC sources through every mechanism
   preset under the oracle, with seeded fault plans layered on) on the
   worker pool and prints a deterministic JSON summary — byte-
   identical at every -j.  Every run is bounded by its program's
   instruction budget.  Fuzz flags (every other artifact rejects
   them):

     --seed S        master campaign seed (default 0)
     --iters N       iteration count (default 100)
     --corpus DIR    persist shrunk minimal repros under DIR
     --mutation NAME plant a reference mutation (guarded test hook
                     proving detection; see corpus docs) *)

module Engine = Elag_engine.Engine
module Experiments = Elag_engine.Experiments
module Verification = Elag_engine.Verification
module Pool = Elag_engine.Pool
module Fault = Elag_verify.Fault
module Lint = Elag_verify.Lint
module Oracle = Elag_verify.Oracle
module Diag = Elag_verify.Diag
module Campaign = Elag_fuzz.Campaign
module Gen = Elag_fuzz.Gen
module Json = Elag_telemetry.Json

let usage () =
  prerr_endline
    "usage: elag_experiments [-j N] [table2|fig5a|fig5b|fig5c|table3|table4|all\
     |ablation|report|lint|faults|verify-smoke|verify|fuzz]\n\
     fuzz flags: [--seed S] [--iters N] [--corpus DIR] [--mutation NAME]";
  exit 1

(* Each suite prints one line per item and returns whether it was
   all-green, so [verify] can run everything before the exit code. *)
let lint_suite engine =
  let results = Verification.run_lint_suite engine in
  List.iter
    (fun (name, r) -> Fmt.pr "%-16s @[<v>%a@]@." name Lint.pp r)
    results;
  List.for_all (fun (_, r) -> Lint.ok r) results

let fault_suite ?entries engine =
  let results = Verification.run_fault_suite ?entries engine in
  List.iter
    (fun ((e : Verification.entry), o) ->
      Fmt.pr "%-13s %a@." e.Verification.mechanism Fault.pp_outcome o)
    results;
  let ok = List.for_all (fun (_, o) -> Fault.outcome_ok o) results in
  Fmt.pr "fault suite: %d plans, %s@." (List.length results)
    (if ok then "all ok" else "FAILURES");
  ok

let oracle_suite engine =
  let results = Verification.run_oracle_suite engine in
  List.iter
    (fun (name, r) -> Fmt.pr "%-16s @[<v>%a@]@." name Oracle.pp r)
    results;
  List.for_all (fun (_, r) -> Oracle.ok r) results

let finish ok = if not ok then exit 1

(* The campaign summary is the artifact: deterministic JSON on stdout,
   exit 1 on any finding or job failure so CI can gate on it. *)
let fuzz_campaign ~jobs ~seed ~iters ~corpus_dir ~mutation =
  (match mutation with
  | Some m when not (List.mem m Gen.mutation_names) ->
    Printf.eprintf "unknown mutation %s\nknown mutations: %s\n" m
      (String.concat " " Gen.mutation_names);
    usage ()
  | _ -> ());
  let config = { Campaign.default with seed; iters; mutation; corpus_dir } in
  let summary = Campaign.run ~jobs config in
  print_endline (Json.to_string ~pretty:true (Campaign.summary_json summary));
  finish (Campaign.ok summary)

let () =
  Diag.guard "elag_experiments" @@ fun () ->
  let jobs = ref (Pool.default_jobs ()) in
  let artifact = ref "all" in
  let seed = ref 0
  and iters = ref 100
  and corpus_dir = ref None
  and mutation = ref None
  and fuzz_flag = ref false in
  let int_arg n = match int_of_string_opt n with
    | Some n when n >= 0 -> n
    | _ -> usage ()
  in
  let rec parse = function
    | [] -> ()
    | "-j" :: n :: rest ->
      (jobs := match int_of_string_opt n with Some n when n > 0 -> n | _ -> usage ());
      parse rest
    | "--seed" :: n :: rest -> seed := int_arg n; fuzz_flag := true; parse rest
    | "--iters" :: n :: rest -> iters := int_arg n; fuzz_flag := true; parse rest
    | "--corpus" :: dir :: rest -> corpus_dir := Some dir; fuzz_flag := true; parse rest
    | "--mutation" :: name :: rest -> mutation := Some name; fuzz_flag := true; parse rest
    | [ ("-j" | "--seed" | "--iters" | "--corpus" | "--mutation") ] -> usage ()
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
      usage ()
    | arg :: rest ->
      artifact := arg;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !fuzz_flag && !artifact <> "fuzz" then usage ();
  if !artifact = "fuzz" then
    fuzz_campaign ~jobs:!jobs ~seed:!seed ~iters:!iters ~corpus_dir:!corpus_dir
      ~mutation:!mutation
  else begin
  let engine = Engine.create ~jobs:!jobs () in
  match !artifact with
  | "table2" -> Experiments.print_table2 engine
  | "fig5a" -> Experiments.print_fig5a engine
  | "fig5b" -> Experiments.print_fig5b engine
  | "fig5c" -> Experiments.print_fig5c engine
  | "table3" -> Experiments.print_table3 engine
  | "table4" -> Experiments.print_table4 engine
  | "all" -> Experiments.run_all engine
  | "ablation" -> Experiments.print_ablation engine
  | "report" -> Experiments.write_pipeline_report engine
  | "lint" -> finish (lint_suite engine)
  | "faults" -> finish (fault_suite engine)
  | "verify-smoke" ->
    let lint_ok = lint_suite engine in
    let fault_ok =
      fault_suite ~entries:Verification.fault_smoke engine
    in
    finish (lint_ok && fault_ok)
  | "verify" ->
    let lint_ok = lint_suite engine in
    let fault_ok = fault_suite engine in
    let oracle_ok = oracle_suite engine in
    finish (lint_ok && fault_ok && oracle_ok)
  | other ->
    prerr_endline ("unknown artifact: " ^ other);
    usage ()
  end
