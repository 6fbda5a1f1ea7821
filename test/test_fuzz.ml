(* Fuzzing-layer tests: the typed EPA-32 generator (lint-clean,
   terminating, deterministic, full specifier/addressing-mode
   coverage), the MiniC generator through the real front-end, campaign
   determinism across -j, the planted-mutation detection + shrinking +
   corpus round-trip pipeline, the preset-independence of the oracle's
   verdict, golden campaign summaries, and replay of the committed
   corpus. *)

module Insn = Elag_isa.Insn
module Program = Elag_isa.Program
module Config = Elag_sim.Config
module Oracle = Elag_verify.Oracle
module Lint = Elag_verify.Lint
module Json = Elag_telemetry.Json
module Gen = Elag_fuzz.Gen
module Shrink = Elag_fuzz.Shrink
module Corpus = Elag_fuzz.Corpus
module Campaign = Elag_fuzz.Campaign

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- generator ------------------------------------------------------------- *)

let test_gen_lint_clean_and_green () =
  (* Gen.program lint-enforces internally; here we additionally prove
     termination within the tracked budget and oracle self-agreement
     under both a baseline and a speculating mechanism. *)
  let mechs =
    [ Config.No_early
    ; Config.Dual { table_entries = 256; selection = Config.Compiler_directed }
    ]
  in
  for seed = 0 to 39 do
    let g = Gen.program seed in
    List.iter
      (fun m ->
        let cfg = Config.with_mechanism m Config.default in
        let r = Oracle.run ~max_insns:g.Gen.budget cfg g.Gen.program in
        check_bool
          (Printf.sprintf "seed %d green under %s" seed
             (Config.Mechanism.to_string m))
          true (Oracle.ok r))
      mechs
  done

let test_gen_deterministic () =
  let a = Gen.program 12345 and b = Gen.program 12345 in
  check_str "same seed, same listing" (Gen.listing a) (Gen.listing b);
  check "same budget" a.Gen.budget b.Gen.budget;
  let c = Gen.program 12346 in
  check_bool "different seed, different program" true
    (Gen.listing a <> Gen.listing c)

let test_gen_coverage () =
  (* across a modest seed range, every load specifier and every
     addressing mode must appear — the campaign exercises the whole
     ISA surface, not a lucky corner *)
  let specs = Hashtbl.create 4 and modes = Hashtbl.create 4 in
  for seed = 0 to 19 do
    let g = Gen.program seed in
    let p = g.Gen.program in
    for pc = 0 to Program.length p - 1 do
      match Program.insn p pc with
      | Insn.Load { spec; addr; _ } ->
        Hashtbl.replace specs spec ();
        Hashtbl.replace modes
          (match addr with
          | Insn.Base_offset _ -> `Off
          | Insn.Base_index _ -> `Idx
          | Insn.Absolute _ -> `Abs)
          ()
      | _ -> ()
    done
  done;
  check "all three load specifiers" 3 (Hashtbl.length specs);
  check "all three addressing modes" 3 (Hashtbl.length modes)

let test_gen_minic_compiles_green () =
  for seed = 0 to 7 do
    let program = Elag_harness.Compile.compile (Gen.minic seed) in
    Lint.enforce program;
    let r =
      Oracle.run ~max_insns:Gen.minic_budget Config.default program
    in
    check_bool (Printf.sprintf "minic seed %d green" seed) true (Oracle.ok r)
  done;
  check_str "minic deterministic" (Gen.minic 3) (Gen.minic 3)

let test_gen_params_roundtrip () =
  let p = Gen.default_params in
  match Gen.params_of_json (Gen.params_to_json p) with
  | Ok p' -> check_bool "params roundtrip" true (p = p')
  | Error msg -> Alcotest.fail msg

(* --- shrinker -------------------------------------------------------------- *)

let test_shrink_minimizes () =
  (* synthetic predicate: "fails" iff the item list still contains a
     store — the shrinker must strip everything else *)
  let g = Gen.program 99 in
  let has_store items =
    List.exists
      (function Program.Insn i -> Insn.is_store i | _ -> false)
      items
  in
  check_bool "seed program has stores" true (has_store g.Gen.items);
  let shrunk = Shrink.minimize ~check:has_store g.Gen.items in
  check "minimal repro is one instruction" 1 (Shrink.insn_count shrunk);
  check_bool "and it is the store" true (has_store shrunk)

(* --- campaign -------------------------------------------------------------- *)

let small_config =
  { Campaign.default with
    iters = 8
  ; mechanisms =
      [ Config.No_early
      ; Config.Dual { table_entries = 256; selection = Config.Compiler_directed }
      ] }

let test_campaign_deterministic_across_jobs () =
  let summary jobs =
    Json.to_string ~pretty:true
      (Campaign.summary_json (Campaign.run ~jobs small_config))
  in
  let s1 = summary 1 in
  check_str "-j4 byte-identical to -j1" s1 (summary 4);
  check_bool "clean campaign" true
    (Campaign.ok (Campaign.run ~jobs:2 small_config))

let test_campaign_catches_planted_mutation () =
  (* the guarded test hook: flip one opcode in the reference program
     and the campaign must catch it, shrink it small, and produce a
     replayable corpus entry *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "elag-fuzz-test-corpus" in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  let config =
    { small_config with
      iters = 2
    ; minic_every = 0
    ; fault_every = 0
    ; mutation = Some "alu-flip"
    ; corpus_dir = Some dir }
  in
  let summary = Campaign.run ~jobs:2 config in
  check_bool "campaign not ok" false (Campaign.ok summary);
  let divergences =
    List.filter
      (fun f -> f.Campaign.f_kind = Campaign.Divergence)
      summary.Campaign.findings
  in
  check_bool "at least one divergence" true (divergences <> []);
  List.iter
    (fun f ->
      check_bool "shrunk" true f.Campaign.f_shrunk;
      check_bool
        (Printf.sprintf "minimal repro is tiny (%d insns)" f.Campaign.f_insns)
        true
        (f.Campaign.f_insns <= 10))
    divergences;
  check_bool "corpus entry written" true (summary.Campaign.saved <> []);
  (* round-trip + replay: the entry regenerates from its seed and the
     mutation is still caught *)
  List.iter
    (fun path ->
      match Corpus.load_file path with
      | Error msg -> Alcotest.fail msg
      | Ok entry -> (
        check_str "mutation recorded" "alu-flip"
          (Option.value entry.Corpus.mutation ~default:"-");
        check_bool "listing attached" true (entry.Corpus.listing <> "");
        match Corpus.replay entry with
        | Ok _ -> ()
        | Error msg -> Alcotest.fail ("replay: " ^ msg)))
    summary.Campaign.saved

(* --- one verdict covers every preset ---------------------------------------- *)

(* The campaign runs the oracle under the first preset only and just
   times the rest.  That rests on a theorem of the model: the pipeline
   observes the retire stream and never steers it, so every part of the
   oracle's report except [subject_cycles] is a function of the program
   and the reference alone.  Checked here on EPA and MiniC programs,
   unmutated and under every planted mutation. *)
let verdict ~budget ?reference cfg program =
  match Oracle.run ~max_insns:budget ?reference cfg program with
  | r ->
    Ok
      ( r.Oracle.compared
      , r.Oracle.divergence
      , (r.Oracle.subject_output, r.Oracle.reference_output, r.Oracle.outputs_match)
      , r.Oracle.reference_trailing
      , Oracle.signature r )
  | exception e -> Error (Printexc.to_string e)

let test_verdict_preset_independent () =
  let programs =
    List.init 6 (fun s ->
        let g = Gen.program (1000 + s) in
        (Printf.sprintf "epa %d" (1000 + s), g.Gen.program, g.Gen.budget))
    @ List.init 3 (fun s ->
          ( Printf.sprintf "minic %d" (2000 + s)
          , Elag_harness.Compile.compile (Gen.minic (2000 + s))
          , Gen.minic_budget ))
  in
  let diverged = ref 0 in
  List.iter
    (fun (name, program, budget) ->
      List.iter
        (fun mutation ->
          let reference = Option.map (fun m -> Gen.apply_mutation m program) mutation in
          let under m = verdict ~budget ?reference (Config.with_mechanism m Config.default) program in
          let first = under (List.hd Config.Mechanism.all) in
          (match first with Ok (_, Some _, _, _, _) -> incr diverged | _ -> ());
          List.iter
            (fun m ->
              check_bool
                (Printf.sprintf "%s, %s: %s agrees with %s" name
                   (Option.value mutation ~default:"no mutation")
                   (Config.Mechanism.to_string m)
                   (Config.Mechanism.to_string (List.hd Config.Mechanism.all)))
                true
                (under m = first))
            (List.tl Config.Mechanism.all))
        (None :: List.map Option.some Gen.mutation_names))
    programs;
  check_bool "planted mutations diverge" true (!diverged > 0)

(* --- golden campaign summaries --------------------------------------------- *)

(* The summary of seed 42, 25 iterations, unmutated and under each
   planted mutation: findings, shrunk repros and counters, pinned
   byte for byte.  Regenerate with the hook described in {!Golden}. *)
let golden_summaries () =
  Json.to_string ~pretty:true
    (Json.Obj
       (List.map
          (fun mutation ->
            ( Option.value mutation ~default:"none"
            , Campaign.summary_json
                (Campaign.run { Campaign.default with seed = 42; iters = 25; mutation }) ))
          (None :: List.map Option.some Gen.mutation_names)))
  ^ "\n"

let test_golden_summaries () =
  Golden.check ~file:"golden_fuzz_summaries.json" (golden_summaries ())

(* --- allocation --------------------------------------------------------------- *)

(* The timed presets of an iteration share one pipeline and one
   emulator, so an iteration allocates in the major heap about what its
   oracle run, fault pair and MiniC compile need, not 11 more pipelines
   and emulators: about 46 K words per iteration, against about 195 K
   when every preset built its own. *)
let test_campaign_major_words () =
  let iters = 25 in
  let before = (Gc.quick_stat ()).Gc.major_words in
  ignore (Campaign.run ~jobs:1 { Campaign.default with seed = 1; iters });
  let per_iter = ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int iters in
  if per_iter > 100_000. then
    Alcotest.failf "%.0f major-heap words per iteration (at most 100000)" per_iter

(* --- committed corpus replays ---------------------------------------------- *)

let test_committed_corpus_replays () =
  match Corpus.locate () with
  | None -> Alcotest.fail "fuzz/corpus not found from test cwd"
  | Some dir ->
    let results = Corpus.replay_dir dir in
    check_bool "corpus non-empty" true (results <> []);
    List.iter
      (fun (path, r) ->
        match r with
        | Ok _ -> ()
        | Error msg ->
          Alcotest.fail (Printf.sprintf "%s: %s" (Filename.basename path) msg))
      results

let suite =
  [ Alcotest.test_case "gen: lint-clean and oracle-green" `Quick
      test_gen_lint_clean_and_green
  ; Alcotest.test_case "gen: deterministic" `Quick test_gen_deterministic
  ; Alcotest.test_case "gen: specifier/mode coverage" `Quick test_gen_coverage
  ; Alcotest.test_case "gen: minic compiles green" `Quick
      test_gen_minic_compiles_green
  ; Alcotest.test_case "gen: params roundtrip" `Quick test_gen_params_roundtrip
  ; Alcotest.test_case "shrink: minimizes to witness" `Quick
      test_shrink_minimizes
  ; Alcotest.test_case "campaign: -j4 = -j1 (determinism pin)" `Quick
      test_campaign_deterministic_across_jobs
  ; Alcotest.test_case "campaign: planted mutation caught+shrunk" `Quick
      test_campaign_catches_planted_mutation
  ; Alcotest.test_case "oracle: verdict independent of preset" `Quick
      test_verdict_preset_independent
  ; Alcotest.test_case "campaign: golden summaries" `Quick test_golden_summaries
  ; Alcotest.test_case "campaign: major-heap words per iteration" `Quick
      test_campaign_major_words
  ; Alcotest.test_case "corpus: committed entries replay" `Quick
      test_committed_corpus_replays ]
