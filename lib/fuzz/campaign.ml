(* Differential fuzzing campaigns.

   One iteration = one seeded program (EPA-32 typed construction, or
   MiniC through the front-end every [minic_every]-th iteration)
   checked once by the differential oracle and timed under every
   mechanism preset, with a seeded fault plan layered on some
   iterations.  Iterations are pure functions of the per-iteration
   seed, so they fan out on the pool and the merged summary is
   byte-identical at every [-j] setting; per-iteration seeds are drawn
   serially from the master stream before the fan-out.  Every run is
   bounded by the program's instruction budget, never by a wall
   clock.

   On a finding, the offending EPA program is shrunk against the
   oracle's failure signature and the minimal repro is persisted to
   the corpus (serially, after the pool drains — no parallel file
   writes).  An iteration stops at its first finding: the oracle's
   verdict does not depend on the preset, and for real bugs the
   per-mechanism re-runs of one suspect program belong in the repro
   workflow, not the campaign loop. *)

module Config = Elag_sim.Config
module Pipeline = Elag_sim.Pipeline
module Emulator = Elag_sim.Emulator
module Oracle = Elag_verify.Oracle
module Lint = Elag_verify.Lint
module Fault = Elag_verify.Fault
module Xorshift = Elag_verify.Xorshift
module Pool = Elag_engine.Pool
module Json = Elag_telemetry.Json

type config =
  { seed : int
  ; iters : int
  ; mechanisms : Config.mechanism list
  ; gen_params : Gen.params
  ; minic_every : int  (* every k-th iteration compiles MiniC; 0 = never *)
  ; fault_every : int  (* every k-th iteration layers a fault plan; 0 = never *)
  ; mutation : string option
  ; corpus_dir : string option }

let default =
  { seed = 0
  ; iters = 100
  ; mechanisms = Config.Mechanism.all
  ; gen_params = Gen.default_params
  ; minic_every = 5
  ; fault_every = 3
  ; mutation = None
  ; corpus_dir = None }

type kind = Divergence | Fault_violation | Lint_reject | Crash

let kind_to_string = function
  | Divergence -> "divergence"
  | Fault_violation -> "fault-violation"
  | Lint_reject -> "lint-reject"
  | Crash -> "crash"

type finding =
  { f_iter : int
  ; f_seed : int
  ; f_source : string  (* "epa" | "minic" *)
  ; f_mechanism : string
  ; f_kind : kind
  ; f_detail : string
  ; f_report : Json.t
  ; f_listing : string
  ; f_insns : int
  ; f_shrunk : bool
  ; f_fingerprint : string }

(* per-iteration result carried back through the pool *)
type iter_result =
  { r_iter : int
  ; r_seed : int
  ; r_source : string
  ; r_oracle_runs : int
  ; r_fault_runs : int
  ; r_findings : finding list }

type summary =
  { cfg : config
  ; jobs : int
  ; iterations : int
  ; oracle_runs : int
  ; fault_runs : int
  ; findings : finding list
  ; failures : (int * string) list
  ; saved : string list  (* corpus metadata paths written this run *) }

(* Each runs under {!Fault.preset_of_target}. *)
let fault_targets =
  [| Fault.Table_scramble { slot = 3 }
   ; Fault.Table_pa { slot = 5 }
   ; Fault.Table_state { slot = 2 }
   ; Fault.Bric_flush
   ; Fault.Bric_delay { cycles = 8 }
   ; Fault.Raddr_unbind
   ; Fault.Btb_target { slot = 1 }
   ; Fault.Btb_scramble { slot = 1 } |]

let finding ~iter ~seed ~source ~mechanism ~kind ~detail ~report ~listing
    ~insns ~shrunk =
  { f_iter = iter
  ; f_seed = seed
  ; f_source = source
  ; f_mechanism = mechanism
  ; f_kind = kind
  ; f_detail = detail
  ; f_report = report
  ; f_listing = listing
  ; f_insns = insns
  ; f_shrunk = shrunk
  ; f_fingerprint = Corpus.fingerprint ~listing ~mechanism ~detail }

(* Shrink an EPA generator output against the failure signature: a
   candidate reproduces iff it assembles, lints and yields the same
   oracle signature under the same (mechanism, mutation). *)
let shrink_epa ~cfg ~mutation ~signature (g : Gen.t) =
  let check items =
    match Gen.reassemble g items with
    | exception _ -> false
    | program -> (
      match Lint.check program with
      | report when not (Lint.ok report) -> false
      | _ -> (
        match Gen.verdict ?mutation ~budget:g.Gen.budget cfg program with
        | _, s -> s = Some signature
        | exception _ -> false))
  in
  let items = Shrink.minimize ~check g.Gen.items in
  let program = Gen.reassemble g items in
  (Fmt.str "%a" Elag_isa.Program.pp program, Shrink.insn_count items)

let run_iteration config (iter, seed) =
  let source =
    if config.minic_every > 0 && (iter + 1) mod config.minic_every = 0 then
      "minic"
    else "epa"
  in
  let oracle_runs = ref 0 in
  let fault_runs = ref 0 in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let finish () =
    { r_iter = iter
    ; r_seed = seed
    ; r_source = source
    ; r_oracle_runs = !oracle_runs
    ; r_fault_runs = !fault_runs
    ; r_findings = List.rev !findings }
  in
  let mk = finding ~iter ~seed ~source in
  let stop = ref false in
  (* [what] names the step that raised when it is not a preset run;
     [program] is absent when generation itself raised *)
  let crash ?what ?program mechanism e =
    stop := true;
    let detail =
      match what with
      | None -> Printexc.to_string e
      | Some what -> Printf.sprintf "%s: %s" what (Printexc.to_string e)
    in
    let listing, insns =
      match program with
      | None -> ("", 0)
      | Some p -> (Fmt.str "%a" Elag_isa.Program.pp p, Elag_isa.Program.length p)
    in
    add
      (mk ~mechanism ~kind:Crash ~detail ~report:Json.Null ~listing ~insns
         ~shrunk:false)
  in
  (* generate (compile) — a crash here is a finding, with the seed
     preserved, not a dead worker *)
  match Gen.iteration ~params:config.gen_params ~source seed with
  | exception e ->
    crash ~what:"generation" "-" e;
    finish ()
  | g, program, budget -> (
    let listing () = Fmt.str "%a" Elag_isa.Program.pp program in
    match Lint.check program with
    | lint when not (Lint.ok lint) ->
      add
        (mk ~mechanism:"-" ~kind:Lint_reject
           ~detail:
             (Fmt.str "%a" Lint.pp_issue (List.hd lint.Lint.issues))
           ~report:(Lint.to_json lint) ~listing:(listing ())
           ~insns:(Elag_isa.Program.length program) ~shrunk:false);
      finish ()
    | _ -> (
      (* One oracle verdict covers every preset: the retire stream is a
         function of the program alone, so the first preset runs under
         the oracle and each remaining one is only timed.  The timed
         presets share one pipeline and one emulator, the first
         creating them and each later one resetting them.
         [oracle_runs] counts the preset runs the verdict covers. *)
      let crash = crash ~program in
      let shared = ref None in
      let time cfg =
        let pipe, emu =
          match !shared with
          | None ->
            let pair = (Pipeline.create cfg, Emulator.create program) in
            shared := Some pair;
            pair
          | Some ((pipe, emu) as pair) ->
            Pipeline.reset pipe cfg;
            Emulator.reset emu;
            pair
        in
        Emulator.run ~observer:(Pipeline.observer pipe) ~max_insns:budget emu
      in
      List.iteri
        (fun k mechanism ->
          if not !stop then begin
            let cfg = Config.with_mechanism mechanism Config.default in
            let mech_name = Config.Mechanism.to_string mechanism in
            incr oracle_runs;
            if k > 0 then
              match time cfg with exception e -> crash mech_name e | () -> ()
            else
              match Gen.verdict ?mutation:config.mutation ~budget cfg program with
              | exception e -> crash mech_name e
              | _, None -> ()
              | report, Some signature ->
                stop := true;
                let listing, insns, shrunk =
                  match Option.map (shrink_epa ~cfg ~mutation:config.mutation ~signature) g with
                  | Some (l, n) -> (l, n, true)
                  | None | exception _ -> (listing (), Elag_isa.Program.length program, false)
                in
                add
                  (mk ~mechanism:mech_name ~kind:Divergence ~detail:signature
                     ~report:(Oracle.to_json report) ~listing ~insns ~shrunk)
          end)
        config.mechanisms;
      (* fault layer: seeded plan on clean EPA programs *)
      if
        (not !stop) && config.fault_every > 0
        && (iter + 1) mod config.fault_every = 0
        && source = "epa"
      then begin
        let frng = Xorshift.create (seed lxor 0xFA17) in
        let target = fault_targets.(Xorshift.int frng (Array.length fault_targets)) in
        let mech_name = Fault.preset_of_target target in
        let cfg =
          Config.with_mechanism (Config.Mechanism.of_string_exn mech_name) Config.default
        in
        match Fault.baseline ~max_insns:budget cfg program with
        | exception e -> crash ~what:"fault baseline" mech_name e
        | base ->
          let retired = max 1 base.Fault.base_retired in
          let plan =
            { Fault.name = Fmt.str "fuzz-%a" Fault.pp_target target
            ; seed = Xorshift.next frng
            ; first = 1 + Xorshift.int frng retired
            ; period = Some (max 1 (retired / 5))
            ; target }
          in
          incr fault_runs;
          match Fault.run_plan ~max_insns:budget ~baseline:base cfg program plan with
          | exception e -> crash ~what:"fault plan" mech_name e
          | outcome ->
            (* On arbitrary programs only the architectural invariants
               are universal: corrupted hint state may legitimately
               *help* timing on a program the plan wasn't curated for,
               so cycles_ok is a curated-suite check, not a fuzz one. *)
            if not (outcome.Fault.output_ok && outcome.Fault.stream_ok) then
              add
                (mk ~mechanism:mech_name ~kind:Fault_violation
                   ~detail:
                     (Printf.sprintf "%s: output_ok=%b stream_ok=%b"
                        plan.Fault.name outcome.Fault.output_ok
                        outcome.Fault.stream_ok)
                   ~report:(Fault.outcome_to_json outcome)
                   ~listing:(listing ())
                   ~insns:(Elag_isa.Program.length program) ~shrunk:false)
      end;
      finish ()))

let run ?(jobs = 1) config =
  if config.iters < 0 then invalid_arg "Campaign.run: negative iters";
  if config.mechanisms = [] then invalid_arg "Campaign.run: no mechanisms";
  (* per-iteration seeds drawn serially up front: the fan-out order
     can never perturb the seed sequence *)
  let master = Xorshift.create config.seed in
  let seeds = Array.init config.iters (fun i -> (i, Xorshift.next master)) in
  (* an iteration that escapes with an exception becomes a failure
     entry; the other iterations' results are kept *)
  let outcomes =
    Pool.run ~jobs
      (fun ((iter, _) as item) ->
        try Ok (run_iteration config item)
        with e -> Error (iter, Printexc.to_string e))
      seeds
    |> Array.to_list
  in
  let results, failures =
    List.partition_map (function Ok r -> Either.Left r | Error f -> Either.Right f) outcomes
  in
  let findings =
    List.concat_map (fun r -> r.r_findings) results
    |> List.sort (fun a b -> compare a.f_iter b.f_iter)
  in
  (* corpus writes happen here, serially, after the pool has drained *)
  let saved =
    match config.corpus_dir with
    | None -> []
    | Some dir ->
      let seen = Hashtbl.create 16 in
      List.filter_map
        (fun f ->
          if f.f_listing = "" || Hashtbl.mem seen f.f_fingerprint then None
          else begin
            Hashtbl.add seen f.f_fingerprint ();
            let entry =
              { Corpus.fingerprint = f.f_fingerprint
              ; seed = f.f_seed
              ; source = f.f_source
              ; mechanism = f.f_mechanism
              ; kind = kind_to_string f.f_kind
              ; detail = f.f_detail
              ; mutation = config.mutation
              ; gen_params = Gen.params_to_json config.gen_params
              ; insns = f.f_insns
              ; listing = f.f_listing
              ; report = f.f_report }
            in
            Some (Corpus.save ~dir entry)
          end)
        findings
  in
  { cfg = config
  ; jobs
  ; iterations = config.iters
  ; oracle_runs = List.fold_left (fun n r -> n + r.r_oracle_runs) 0 results
  ; fault_runs = List.fold_left (fun n r -> n + r.r_fault_runs) 0 results
  ; findings
  ; failures
  ; saved }

(* The summary's counters, in their published order.  [histograms] is
   kept, always empty, so the summary's shape is unchanged. *)
let metrics_json summary =
  let count kind =
    List.length (List.filter (fun f -> f.f_kind = kind) summary.findings)
  in
  let counters =
    [ ("iterations", summary.iterations)
    ; ("oracle_runs", summary.oracle_runs)
    ; ("fault_runs", summary.fault_runs)
    ; ("findings", List.length summary.findings)
    ; ("divergences", count Divergence)
    ; ("fault_violations", count Fault_violation)
    ; ("lint_rejects", count Lint_reject)
    ; ("crashes", count Crash)
    ; ("job_failures", List.length summary.failures) ]
  in
  Json.Obj
    [ ("counters", Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) counters))
    ; ("histograms", Json.Obj []) ]

let finding_to_json f =
  Json.Obj
    [ ("iter", Json.Int f.f_iter)
    ; ("seed", Json.Int f.f_seed)
    ; ("source", Json.String f.f_source)
    ; ("mechanism", Json.String f.f_mechanism)
    ; ("kind", Json.String (kind_to_string f.f_kind))
    ; ("detail", Json.String f.f_detail)
    ; ("insns", Json.Int f.f_insns)
    ; ("shrunk", Json.Bool f.f_shrunk)
    ; ("fingerprint", Json.String f.f_fingerprint) ]

let summary_json summary =
  let c = summary.cfg in
  Json.Obj
    [ ( "config"
      , Json.Obj
          [ ("seed", Json.Int c.seed)
          ; ("iters", Json.Int c.iters)
          ; ( "mechanisms"
            , Json.List
                (List.map
                   (fun m -> Json.String (Config.Mechanism.to_string m))
                   c.mechanisms) )
          ; ("gen_params", Gen.params_to_json c.gen_params)
          ; ("minic_every", Json.Int c.minic_every)
          ; ("fault_every", Json.Int c.fault_every)
          ; ( "mutation"
            , match c.mutation with
              | None -> Json.Null
              | Some m -> Json.String m ) ] )
    ; ("metrics", metrics_json summary)
    ; ("findings", Json.List (List.map finding_to_json summary.findings))
    ; ( "failures"
      , Json.List
          (List.map
             (fun (iter, f) ->
               Json.Obj
                 [ ("iter", Json.Int iter)
                 ; ("failure", Json.String f) ])
             summary.failures) )
    ; ("corpus_saved", Json.List (List.map (fun p -> Json.String p) summary.saved))
    ]

let ok summary = summary.findings = [] && summary.failures = []
