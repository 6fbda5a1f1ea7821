module Config = Elag_sim.Config
module Pipeline = Elag_sim.Pipeline
module Compile = Elag_harness.Compile
module Profile = Elag_harness.Profile
module Workload = Elag_workloads.Workload
module Program = Elag_isa.Program
module Insn = Elag_isa.Insn
module Json = Elag_telemetry.Json

type variant = Classified | Reclassified

type t =
  { jobs : int
  ; programs : (string, Program.t) Cache.t        (* workload name *)
  ; profiles : (string, Profile.t) Cache.t
  ; reclassifieds : (string, Program.t) Cache.t
  ; sims : (string, Pipeline.stats) Cache.t }     (* workload + variant + config *)

let create ?jobs () =
  { jobs = (match jobs with Some j -> max 1 j | None -> Pool.default_jobs ())
  ; programs = Cache.create ()
  ; profiles = Cache.create ()
  ; reclassifieds = Cache.create ()
  ; sims = Cache.create ~size:256 () }

let jobs t = t.jobs

(* Every artifact the engine hands out has passed the static lint:
   a malformed compilation result is rejected here, before it can burn
   a simulation slot or simulate with meaningless timing. *)
let lint_checked program =
  Elag_verify.Lint.enforce program;
  program

let program t (w : Workload.t) =
  Cache.find_or_compute t.programs w.Workload.name (fun () ->
      lint_checked (Compile.compile w.Workload.source))

let profile t (w : Workload.t) =
  Cache.find_or_compute t.profiles w.Workload.name (fun () ->
      Profile.collect (program t w))

let reclassified t (w : Workload.t) =
  Cache.find_or_compute t.reclassifieds w.Workload.name (fun () ->
      lint_checked (Profile.reclassify (profile t w) (program t w)))

let program_of t w = function
  | Classified -> program t w
  | Reclassified -> reclassified t w

let variant_suffix = function Classified -> "" | Reclassified -> "+prof"

let simulate ?(variant = Classified) ?config t (w : Workload.t) mechanism =
  let cfg =
    Config.with_mechanism mechanism (Option.value config ~default:Config.default)
  in
  (* The key covers the full machine configuration, not just the
     mechanism name, so [?config] overrides can never collide. *)
  let key =
    w.Workload.name ^ variant_suffix variant ^ "|" ^ Json.to_string (Config.to_json cfg)
  in
  Cache.find_or_compute t.sims key (fun () ->
      let stats, output = Pipeline.simulate cfg (program_of t w variant) in
      (match w.Workload.expected_output with
      | Some expected when String.trim output <> String.trim expected ->
        failwith
          (Printf.sprintf "%s: output mismatch under %s%s" w.Workload.name
             (Config.mechanism_name mechanism) (variant_suffix variant))
      | _ -> ());
      stats)

let base_cycles ?config t w =
  (simulate ?config t w Config.No_early).Pipeline.cycles

let speedup ?variant ?config t w mechanism =
  let s = simulate ?variant ?config t w mechanism in
  float_of_int (base_cycles ?config t w) /. float_of_int s.Pipeline.cycles

type distribution =
  { static_nt : float; static_pd : float; static_ec : float
  ; dynamic_nt : float; dynamic_pd : float; dynamic_ec : float
  ; rate_nt : float option
  ; rate_pd : float option
  ; total_dynamic_loads : int }

(* The variant's loads by specifier, on the dense load index: a
   reclassified program keeps every load at its pc, so its load numbers
   are the profiled program's. *)
let distribution ?(variant = Classified) t w =
  let prof = profile t w in
  let prog = program_of t w variant in
  let loads = List.init (Program.load_count prog) Fun.id in
  let of_spec spec = List.filter (fun k -> Program.load_spec prog k = spec) loads in
  let nt = of_spec Insn.Ld_n and pd = of_spec Insn.Ld_p and ec = of_spec Insn.Ld_e in
  let st_total = List.length loads in
  let dyn ks =
    List.fold_left (fun acc k -> acc + Elag_predict.Ideal.executions prof.Profile.rates k) 0 ks
  in
  let dyn_nt = dyn nt and dyn_pd = dyn pd and dyn_ec = dyn ec in
  let dyn_total = max 1 (dyn_nt + dyn_pd + dyn_ec) in
  let pct a b = 100. *. float_of_int a /. float_of_int (max 1 b) in
  let rate ks = Elag_predict.Ideal.aggregate_rate prof.Profile.rates ks in
  { static_nt = pct (List.length nt) st_total
  ; static_pd = pct (List.length pd) st_total
  ; static_ec = pct (List.length ec) st_total
  ; dynamic_nt = pct dyn_nt dyn_total
  ; dynamic_pd = pct dyn_pd dyn_total
  ; dynamic_ec = pct dyn_ec dyn_total
  ; rate_nt = Option.map (fun r -> 100. *. r) (rate nt)
  ; rate_pd = Option.map (fun r -> 100. *. r) (rate pd)
  ; total_dynamic_loads = dyn_total }

module Job = struct
  type nonrec t =
    { workload : Workload.t
    ; mechanism : Config.mechanism
    ; variant : variant }

  let make ?(variant = Classified) workload mechanism = { workload; mechanism; variant }

  let name j =
    j.workload.Workload.name ^ "/" ^ Config.mechanism_name j.mechanism
    ^ variant_suffix j.variant
end

let map t f items = Pool.map_list ~jobs:t.jobs f items

let run_job t (j : Job.t) =
  simulate ~variant:j.Job.variant t j.Job.workload j.Job.mechanism

let run_jobs t js = map t (fun j -> (j, run_job t j)) js
