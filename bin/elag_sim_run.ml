(* Run one workload (or all) under the emulator and, optionally, a
   timing configuration.  Usage:

     elag_sim_run                       — emulate every workload, print stats
     elag_sim_run --all                 — same, explicitly
     elag_sim_run --all <mechanism>     — time every workload under one
                                          mechanism on the parallel engine
     elag_sim_run <name>                — emulate one workload
     elag_sim_run <name> <mechanism>    — time it (mechanisms: baseline,
                                          table-N[-hw|-cc], calc-N,
                                          dual-hw, dual-cc, dual-N-hw|-cc)

   Multi-workload modes fan out over -j N worker domains (default:
   Domain.recommended_domain_count); output order is always the suite
   order, independent of -j.  The single-workload modes reject -j.

   Telemetry flags (timed runs only):

     --report json|csv   emit the full machine-readable report (config
                         provenance, stall-cause breakdown, per-load-site
                         table) to stdout instead of the text summary
     --trace FILE        write a Chrome trace_event file (load it in
                         about:tracing or https://ui.perfetto.dev)
     --max-insns N       stop after N retired instructions; reports and
                         traces then cover that window (recommended when
                         tracing: one event per instruction adds up)

   Every run is bounded by its instruction budget: --max-insns N, or
   the emulator's default.  Emulate, --oracle and --fault runs that
   exceed it fail with a runaway error and exit 2.  --all <mechanism>
   times whole workloads, so it rejects --max-insns with the usage
   text.

   Verification (single timed runs):

     --oracle            run the differential oracle: the timing pipeline
                         and a reference emulator consume the retire
                         stream in lockstep and every (pc, insn, address,
                         branch) event must agree; exit 1 on divergence
     --fault TARGET      run a seeded fault-injection plan against the
                         workload under the given mechanism and check the
                         architectural invariants (targets: see usage
                         text; optional :N parameter, e.g.
                         table-scramble:17); exit 1 on violation
     --seed N            seed for --fault plans (default 0); rejected
                         without --fault

   Every mode takes its programs from one engine, which lints each
   compiled program first (wild control targets, illegal registers,
   ld_e binding rules, data bounds); a malformed artifact exits 2 with
   a one-line diagnostic. *)

module Pipeline = Elag_sim.Pipeline
module Report = Elag_sim.Report
module Config = Elag_sim.Config
module Emulator = Elag_sim.Emulator
module Workload = Elag_workloads.Workload
module Suite = Elag_workloads.Suite
module Json = Elag_telemetry.Json
module Trace = Elag_telemetry.Trace
module Insn = Elag_isa.Insn
module Engine = Elag_engine.Engine
module Oracle = Elag_verify.Oracle
module Diag = Elag_verify.Diag
module Fault = Elag_verify.Fault

let usage () =
  prerr_endline
    "usage: elag_sim_run [--all] [workload [mechanism]] [-j N] [--report json|csv] [--trace FILE] [--max-insns N] [--oracle]\n\
    \       [--fault TARGET] [--seed N]";
  Printf.eprintf "fault targets: %s\n%!" (String.concat " " Fault.target_names);
  exit 1

(* Unknown-name errors print the full vocabulary instead of dying with
   a bare exception. *)
let mechanism_of_string s =
  try Config.Mechanism.of_string_exn s
  with Invalid_argument msg -> prerr_endline msg; usage ()

let find_workload name =
  try Suite.find name
  with Invalid_argument _ ->
    Printf.eprintf "unknown workload %s\nknown workloads: %s\n" name
      (String.concat ", "
         (List.map (fun (w : Workload.t) -> w.Workload.name) Suite.all));
    usage ()

let emulate_one engine ~max_insns (w : Workload.t) =
  let emu = Emulator.create (Engine.program engine w) in
  Emulator.run ?max_insns emu;
  Printf.sprintf "%-16s  insns=%9d  output=%s" w.Workload.name (Emulator.retired emu)
    (String.concat "," (String.split_on_char '\n' (String.trim (Emulator.output emu))))

(* Emulate every workload on the engine's pool; lines print in suite
   order once all work is done, so output is identical at every -j.
   The first workload in suite order that fails ends the run with its
   own diagnostic, as the single-workload mode would. *)
let emulate_all engine ~max_insns =
  Engine.map engine
    (fun w -> try Ok (emulate_one engine ~max_insns w) with e -> Error e)
    Suite.all
  |> List.map (function Ok line -> line | Error e -> raise e)
  |> List.iter print_endline

(* Time every workload under one mechanism through the engine.  The
   baselines the speedup column needs are scheduled as pool jobs too,
   so the printing loop below runs entirely out of cache. *)
let time_all engine mech =
  let sweep =
    List.concat_map
      (fun w -> [ Engine.Job.make w Config.No_early; Engine.Job.make w mech ])
      Suite.all
  in
  ignore (Engine.run_jobs engine sweep);
  Printf.printf "%-16s %12s %12s %8s %9s\n" "workload" "cycles" "insns" "IPC"
    "speedup";
  List.iter
    (fun (w : Workload.t) ->
      let s = Engine.simulate engine w mech in
      Printf.printf "%-16s %12d %12d %8.2f %9.3f\n" w.Workload.name
        s.Pipeline.cycles s.Pipeline.instructions (Report.ipc s)
        (Engine.speedup engine w mech))
    Suite.all

(* Map each instruction class to its own about:tracing thread row so
   loads, stores, branches and ALU traffic read as separate lanes. *)
let trace_lane insn =
  if Insn.is_load insn then (1, "loads")
  else if Insn.is_store insn then (2, "stores")
  else if Insn.is_branch insn then (3, "control")
  else (0, "alu")

let install_trace t =
  let tr = Trace.create () in
  List.iter
    (fun (tid, name) -> Trace.set_thread_name tr ~tid name)
    [ (0, "alu"); (1, "loads"); (2, "stores"); (3, "control") ];
  Pipeline.set_tracer t (fun pc insn cycle latency ->
      let tid, _ = trace_lane insn in
      Trace.complete tr
        ~name:(Fmt.str "%a" Insn.pp insn)
        ~cat:(snd (trace_lane insn))
        ~ts:cycle ~dur:latency ~tid
        ~args:[ ("pc", Json.Int pc); ("latency", Json.Int latency) ]
        ());
  tr

let oracle_one engine (w : Workload.t) mech ~max_insns =
  let cfg = Config.with_mechanism mech Config.default in
  let r = Oracle.run ?max_insns cfg (Engine.program engine w) in
  Fmt.pr "%s under %s: @[<v>%a@]@." w.Workload.name
    (Config.mechanism_name mech) Oracle.pp r;
  if not (Oracle.ok r) then exit 1

(* Seeded fault plan against one (workload, mechanism): baseline run,
   corrupt the predictor state on a retire-count schedule derived from
   the baseline's length, and hold the architectural invariants. *)
let fault_one engine (w : Workload.t) mech target ~seed ~max_insns =
  let program = Engine.program engine w in
  let cfg = Config.with_mechanism mech Config.default in
  let base = Fault.baseline ?max_insns cfg program in
  let retired = max 1 base.Fault.base_retired in
  let plan =
    { Fault.name = Fmt.str "cli-%a" Fault.pp_target target
    ; seed
    ; first = 1 + (retired / 3)
    ; period = Some (max 1 (retired / 5))
    ; target }
  in
  let outcome = Fault.run_plan ?max_insns ~baseline:base cfg program plan in
  Fmt.pr "%s under %s: %a@." w.Workload.name (Config.mechanism_name mech)
    Fault.pp_outcome outcome;
  if not (Fault.outcome_ok outcome) then exit 1

let time_one engine (w : Workload.t) mech ~report ~trace_file ~max_insns =
  let t = Pipeline.create (Config.with_mechanism mech Config.default) in
  let tr = Option.map (fun _ -> install_trace t) trace_file in
  let emu = Emulator.create (Engine.program engine w) in
  (* a user-bounded run is a measurement window, not a runaway loop *)
  (try Emulator.run ~observer:(Pipeline.observer t) ?max_insns emu
   with Emulator.Runaway _ when max_insns <> None -> ());
  (match (trace_file, tr) with
  | Some file, Some tr ->
    let oc = open_out file in
    Trace.write tr oc;
    close_out oc;
    Printf.eprintf "wrote %d trace events to %s\n%!" (Trace.events tr) file
  | _ -> ());
  let meta = [ ("workload", Json.String w.Workload.name) ] in
  match report with
  | Some `Json -> print_endline (Json.to_string ~pretty:true (Report.to_json ~meta t))
  | Some `Csv ->
    print_string (Report.to_csv ~meta:[ ("workload", w.Workload.name) ] t)
  | None ->
    print_string (Report.to_text ~name:w.Workload.name ~output:(Emulator.output emu) t)

let () =
  Diag.guard "elag_sim_run" @@ fun () ->
  let report = ref None
  and trace_file = ref None
  and max_insns = ref None
  and jobs = ref None
  and all = ref false
  and oracle = ref false
  and fault = ref None
  and seed = ref None
  and positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--report" :: fmt :: rest ->
      (report :=
         match fmt with
         | "json" -> Some `Json
         | "csv" -> Some `Csv
         | _ -> usage ());
      parse rest
    | "--trace" :: file :: rest ->
      trace_file := Some file;
      parse rest
    | "--max-insns" :: n :: rest ->
      (max_insns :=
         match int_of_string_opt n with Some n when n > 0 -> Some n | _ -> usage ());
      parse rest
    | "-j" :: n :: rest ->
      (jobs := match int_of_string_opt n with Some n when n > 0 -> Some n | _ -> usage ());
      parse rest
    | "--all" :: rest ->
      all := true;
      parse rest
    | "--oracle" :: rest ->
      oracle := true;
      parse rest
    | "--fault" :: name :: rest ->
      (fault :=
         match Fault.target_of_string name with
         | Some t -> Some t
         | None ->
           Printf.eprintf "unknown fault target %s\n" name;
           usage ());
      parse rest
    | "--seed" :: n :: rest ->
      (seed := match int_of_string_opt n with Some n when n >= 0 -> Some n | _ -> usage ());
      parse rest
    | ("--report" | "--trace" | "--max-insns" | "-j" | "--fault" | "--seed") :: [] -> usage ()
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" -> usage ()
    | arg :: rest ->
      positional := arg :: !positional;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let max_insns = !max_insns in
  (* -j only fans out the multi-workload modes; --seed only seeds --fault *)
  if (!jobs <> None && not (!all || !positional = []))
     || (!seed <> None && !fault = None)
  then usage ();
  let engine = Engine.create ?jobs:!jobs () in
  match (!all, !oracle, !fault, List.rev !positional, !report, !trace_file) with
  | true, false, None, [], None, None -> emulate_all engine ~max_insns
  | true, false, None, [ mech ], None, None when max_insns = None ->
    time_all engine (mechanism_of_string mech)
  | false, false, None, [], None, None -> emulate_all engine ~max_insns
  | false, false, None, [ name ], None, None ->
    emulate_one engine ~max_insns (find_workload name) |> print_endline
  | false, true, None, [ name; mech ], None, None ->
    oracle_one engine (find_workload name) (mechanism_of_string mech) ~max_insns
  | false, false, Some target, [ name; mech ], None, None ->
    fault_one engine (find_workload name) (mechanism_of_string mech) target
      ~seed:(Option.value !seed ~default:0) ~max_insns
  | false, false, None, [ name; mech ], report, trace_file ->
    time_one engine (find_workload name) (mechanism_of_string mech) ~report
      ~trace_file ~max_insns
  | _ -> usage ()
