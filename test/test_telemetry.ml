(* Telemetry tests: JSON serialization, histogram bucketing, merging
   and summaries, the Chrome trace exporter, the pipeline's
   stall-attribution invariant (busy + Σ stalls = cycles) across
   workloads × mechanisms, per-load-site accounting, and golden-file
   checks of the JSON and CSV reports. *)

module Json = Elag_telemetry.Json
module Histogram = Elag_telemetry.Histogram
module Stall = Elag_telemetry.Stall
module Trace = Elag_telemetry.Trace
module Pipeline = Elag_sim.Pipeline
module Report = Elag_sim.Report
module Config = Elag_sim.Config
module Bric = Elag_predict.Bric
module Insn = Elag_isa.Insn
module Layout = Elag_isa.Layout
module Program = Elag_isa.Program
module Suite = Elag_workloads.Suite
module Engine = Elag_engine.Engine
module Gen = Elag_fuzz.Gen

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length sub in
  let rec scan i =
    if i + n > String.length s then false
    else String.sub s i n = sub || scan (i + 1)
  in
  scan 0

(* --- JSON ----------------------------------------------------------------- *)

let test_json_printing () =
  check_str "scalars" "[null,true,-3,1.5,\"a\\\"b\\n\"]"
    (Json.to_string
       (Json.List
          [ Json.Null; Json.Bool true; Json.Int (-3); Json.Float 1.5
          ; Json.String "a\"b\n" ]));
  check_str "object order preserved" "{\"b\":1,\"a\":2}"
    (Json.to_string (Json.Obj [ ("b", Json.Int 1); ("a", Json.Int 2) ]));
  check_str "integral float" "2.0" (Json.to_string (Json.Float 2.));
  check_str "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check_str "control chars escaped" "\"\\u0001\""
    (Json.to_string (Json.String "\x01"))

let test_json_parse_roundtrip () =
  (* everything the serializer emits must read back structurally
     identical — the fuzz corpus depends on it *)
  let samples =
    [ Json.Null
    ; Json.Bool false
    ; Json.Int (-123456789)
    ; Json.Float 1.5
    ; Json.String "he said \"hi\"\n\ttab \x01 done"
    ; Json.List []
    ; Json.Obj []
    ; Json.Obj
        [ ("seed", Json.Int 42)
        ; ("detail", Json.String "divergence:load-vs-alu")
        ; ("nested", Json.List [ Json.Obj [ ("x", Json.Float 0.25) ]; Json.Null ])
        ]
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string ~pretty:true v in
      match Json.parse s with
      | Ok v' -> check_bool ("roundtrip " ^ s) true (v = v')
      | Error msg -> Alcotest.fail (s ^ ": " ^ msg))
    samples;
  (* accessors *)
  (match Json.parse {|{"a": 1, "b": "two"}|} with
  | Ok j ->
    check "member int" 1
      (Option.value ~default:0 (Option.bind (Json.member "a" j) Json.to_int));
    check_str "member str" "two"
      (Option.value ~default:"" (Option.bind (Json.member "b" j) Json.to_str))
  | Error msg -> Alcotest.fail msg);
  (* malformed inputs produce Error, never exceptions *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted malformed " ^ s))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"unterminated" ]

(* --- histogram ------------------------------------------------------------- *)

let test_histogram_bucketing () =
  let h = Histogram.create ~bounds:[| 0; 1; 2; 4; 8 |] in
  List.iter (Histogram.observe h) [ 0; 1; 1; 2; 3; 4; 7; 9; 100 ];
  check "count" 9 (Histogram.count h);
  check "sum" 127 (Histogram.sum h);
  Alcotest.(check (list (pair (option int) int)))
    "bucket layout"
    [ (Some 0, 1); (Some 1, 2); (Some 2, 1); (Some 4, 2); (Some 8, 1); (None, 2) ]
    (Histogram.bucket_counts h);
  check_bool "rejects unsorted bounds" true
    (try
       ignore (Histogram.create ~bounds:[| 2; 1 |]);
       false
     with Invalid_argument _ -> true)

let test_histogram_merge_reset_json () =
  let bounds = [| 1; 2; 4 |] in
  let a = Histogram.create ~bounds and b = Histogram.create ~bounds in
  check_bool "empty max is null" true
    (Json.member "max" (Histogram.to_json a) = Some Json.Null);
  List.iter (Histogram.observe a) [ 1; 3 ];
  List.iter (Histogram.observe b) [ 2; 20 ];
  Histogram.merge_into ~into:a b;
  check_bool "merged summary" true
    (Histogram.to_json a
     = Json.Obj
         [ ("count", Json.Int 4)
         ; ("sum", Json.Int 26)
         ; ("max", Json.Int 20)
         ; ( "buckets"
           , Json.List
               [ Json.Obj [ ("le", Json.Int 1); ("count", Json.Int 1) ]
               ; Json.Obj [ ("le", Json.Int 2); ("count", Json.Int 1) ]
               ; Json.Obj [ ("le", Json.Int 4); ("count", Json.Int 1) ]
               ; Json.Obj [ ("le", Json.String "inf"); ("count", Json.Int 1) ] ] ) ]);
  check "source untouched" 2 (Histogram.count b);
  check_bool "rejects different bounds" true
    (try
       Histogram.merge_into ~into:a (Histogram.create ~bounds:[| 1 |]);
       false
     with Invalid_argument _ -> true);
  Histogram.reset a;
  check_bool "reset equals create" true
    (Histogram.to_json a = Histogram.to_json (Histogram.create ~bounds));
  (* a reset histogram tracks a maximum below any earlier one *)
  Histogram.observe a (-5);
  check_bool "max after reset" true
    (Json.member "max" (Histogram.to_json a) = Some (Json.Int (-5)))

(* --- trace exporter -------------------------------------------------------- *)

let test_trace_events () =
  let tr = Trace.create ~process_name:"t" () in
  Trace.set_thread_name tr ~tid:1 "loads";
  Trace.complete tr ~name:"ld" ~ts:10 ~dur:0 ~tid:1
    ~args:[ ("pc", Json.Int 4) ] ();
  Trace.complete tr ~name:"add" ~ts:11 ~dur:1 ();
  check "two events" 2 (Trace.events tr);
  let s = Json.to_string (Trace.to_json tr) in
  check_bool "envelope" true
    (String.length s > 0 && String.sub s 0 15 = "{\"traceEvents\":");
  (* zero-duration events are widened to stay visible in the viewer *)
  check_bool "dur clamped to 1" true (contains s "\"dur\":1");
  check_bool "thread name metadata present" true
    (contains s "\"thread_name\"" && contains s "\"loads\"")

(* --- stall taxonomy -------------------------------------------------------- *)

let test_stall_names_distinct () =
  let names = List.map Stall.name Stall.all in
  check "names distinct" (List.length names) (List.length (List.sort_uniq compare names));
  check "cardinal" (List.length Stall.all) Stall.cardinal

(* --- stall-attribution invariant ------------------------------------------- *)

let invariant_panel = [ "072.sc"; "PGP Encode"; "PGP Decode" ]

let invariant_mechanisms =
  [ Config.No_early
  ; Config.Table_only { entries = 256; compiler_filtered = false }
  ; Config.Dual { table_entries = 256; selection = Config.Compiler_directed } ]

(* One shared serial engine: the tests only need its compile cache. *)
let engine = lazy (Engine.create ~jobs:1 ())

let program_of name = Engine.program (Lazy.force engine) (Suite.find name)

(* Seeded random EPA-32 programs, each run within its own instruction
   budget and checked under every preset. *)
let fuzzed =
  lazy
    (List.init 50 (fun seed ->
         let g = Gen.program seed in
         (Printf.sprintf "gen seed %d" seed, g.Gen.program, Some g.Gen.budget)))

(* (label, program, budget, mechanisms): the workload panel under
   [mechanisms], then every fuzzed program under every preset. *)
let invariant_inputs mechanisms =
  List.map (fun name -> (name, program_of name, None, mechanisms)) invariant_panel
  @ List.map
      (fun (label, program, budget) -> (label, program, budget, Config.Mechanism.all))
      (Lazy.force fuzzed)

let for_each_input mechanisms f =
  List.iter
    (fun (name, program, max_insns, mechanisms) ->
      List.iter
        (fun mech ->
          f (name ^ "/" ^ Config.mechanism_name mech)
            (Config.with_mechanism mech Config.default) program max_insns)
        mechanisms)
    (invariant_inputs mechanisms)

(* Theorems of the model: every cycle is either busy or charged to one
   cause, no cause is charged negatively, and no cycle issues more than
   [issue_width] instructions. *)
let test_stall_invariant () =
  for_each_input invariant_mechanisms (fun label cfg program max_insns ->
      let t, _ = Pipeline.run ?max_insns cfg program in
      let s = Pipeline.stats t in
      check (label ^ ": busy + stalls = cycles") s.Pipeline.cycles
        (Pipeline.busy_cycles t + Pipeline.stall_total t);
      List.iter
        (fun (cause, n) ->
          check_bool (label ^ ": " ^ Stall.name cause ^ " non-negative") true (n >= 0))
        (Pipeline.stall_breakdown t);
      let width = cfg.Config.issue_width in
      check_bool (label ^ ": busy >= ceil (instructions / issue width)") true
        (Pipeline.busy_cycles t >= (s.Pipeline.instructions + width - 1) / width))

let test_load_sites_account () =
  let program = program_of "PGP Encode" in
  let cfg =
    Config.with_mechanism
      (Config.Dual { table_entries = 256; selection = Config.Compiler_directed })
      Config.default
  in
  let t, _ = Pipeline.run cfg program in
  let s = Pipeline.stats t in
  let sites = Pipeline.load_sites t in
  check_bool "has sites" true (sites <> []);
  check "site counts sum to loads" s.Pipeline.loads
    (List.fold_left (fun acc site -> acc + Histogram.count site.Pipeline.site_latency) 0 sites);
  check "site latency sums to total" s.Pipeline.load_latency_sum
    (List.fold_left (fun acc site -> acc + Histogram.sum site.Pipeline.site_latency) 0 sites);
  check "aggregate histogram covers every load" s.Pipeline.loads
    (Histogram.count (Pipeline.load_latency_histogram t));
  check "site attempts sum to table attempts" s.Pipeline.table_attempts
    (List.fold_left (fun acc site -> acc + site.Pipeline.site_table_attempts) 0 sites);
  (* PCs are unique and ascending *)
  let pcs = List.map (fun site -> site.Pipeline.site_pc) sites in
  check_bool "pcs sorted" true (List.sort compare pcs = pcs);
  check "pcs unique" (List.length pcs)
    (List.length (List.sort_uniq compare pcs))

(* The flat record's counters are derived: load counters sum the
   sites, and cache accesses come from the data cache itself.  Check
   them against each other and against a spec count taken by a second
   observer on the same retire stream. *)
let test_derived_load_counters () =
  for_each_input Config.Mechanism.all (fun label cfg program max_insns ->
      let t = Pipeline.create cfg in
      let by_spec = Array.make 3 0 in
      let spec_index = function Insn.Ld_n -> 0 | Insn.Ld_p -> 1 | Insn.Ld_e -> 2 in
      let observer p pc eff taken next_pc =
        (match Program.insn p pc with
        | Insn.Load { spec; _ } ->
          let i = spec_index spec in
          by_spec.(i) <- by_spec.(i) + 1
        | _ -> ());
        Pipeline.process t p pc eff taken next_pc
      in
      ignore (Elag_sim.Emulator.run_program ~observer ?max_insns program);
      let s = Pipeline.stats t in
      check (label ^ ": dcache accesses = stores + attempts + unforwarded loads")
        s.Pipeline.dcache_accesses
        (s.Pipeline.stores + s.Pipeline.table_attempts + s.Pipeline.calc_attempts
       + s.Pipeline.loads - s.Pipeline.table_successes - s.Pipeline.calc_successes);
      check (label ^ ": loads_n") by_spec.(0) s.Pipeline.loads_n;
      check (label ^ ": loads_p") by_spec.(1) s.Pipeline.loads_p;
      check (label ^ ": loads_e") by_spec.(2) s.Pipeline.loads_e;
      (* the calc path's base-register cache: R_addr under dual-*, the
         BRIC under calc-N.  Lint makes every ld_e register+offset, so
         under dual-cc each probes R_addr exactly once. *)
      match (cfg.Config.mechanism, Pipeline.bric_stats t) with
      | (Config.No_early | Config.Table_only _), st ->
        check_bool (label ^ ": no base-register cache") true (st = None)
      | (Config.Calc_only _ | Config.Dual _), None ->
        Alcotest.fail (label ^ ": base-register cache stats missing")
      | Config.Dual { selection = Config.Compiler_directed; _ }, Some b ->
        check (label ^ ": R_addr probes = loads_e") by_spec.(2) b.Bric.br_probes
      | (Config.Calc_only _ | Config.Dual _), Some _ -> ())

(* --- specifier insensitivity ------------------------------------------------ *)

(* [select_path] is the only reader of a load's static specifier, and
   only under filtered [Table_only] and compiler-directed [Dual]; the
   [stats] split into [loads_n/p/e] is the only reader of a site's.  So
   under every other mechanism, rewriting every load to one specifier
   must leave everything else a run reports unchanged. *)
let spec_blind_mechanisms =
  List.filter
    (function
      | Config.Table_only { compiler_filtered = true; _ }
      | Config.Dual { selection = Config.Compiler_directed; _ } -> false
      | Config.No_early | Config.Table_only _ | Config.Calc_only _ | Config.Dual _ -> true)
    Config.Mechanism.all

(* Two compiled workloads cut at their first 200 K retires, then
   seeded random programs run to completion. *)
let spec_subjects =
  lazy
    (List.map (fun name -> (name, program_of name, 200_000)) [ "072.sc"; "PGP Encode" ]
    @ List.init 20 (fun seed ->
          let g = Gen.program seed in
          (Printf.sprintf "gen seed %d" seed, g.Gen.program, g.Gen.budget)))

let run_capped mech program max_insns =
  let t = Pipeline.create (Config.with_mechanism mech Config.default) in
  (try ignore (Elag_sim.Emulator.run_program ~observer:(Pipeline.observer t) ~max_insns program)
   with Elag_sim.Emulator.Runaway _ -> ());
  t

(* Everything a run reports except the per-specifier load split. *)
let spec_blind_view t =
  let s = Pipeline.stats t in
  let site_counters (site : Pipeline.load_site) =
    ( site.site_pc
    , [ site.site_table_attempts; site.site_table_successes; site.site_calc_attempts
      ; site.site_calc_successes; site.site_wasted_spec; site.site_dcache_misses ]
    , Histogram.bucket_counts site.site_latency
    , Histogram.sum site.site_latency )
  in
  ( { s with loads_n = 0; loads_p = 0; loads_e = 0 }
  , Pipeline.busy_cycles t
  , Pipeline.stall_breakdown t
  , Pipeline.bric_stats t
  , Pipeline.table_stats t
  , List.map site_counters (Pipeline.load_sites t) )

let respecify spec program = Program.map_insns (fun _ insn -> Insn.with_load_spec spec insn) program

let all_specs = [ Insn.Ld_n; Insn.Ld_p; Insn.Ld_e ]

let test_spec_insensitivity () =
  let subjects = Lazy.force spec_subjects in
  List.iter
    (fun (name, program, max_insns) ->
      List.iter
        (fun mech ->
          let reference = spec_blind_view (run_capped mech program max_insns) in
          List.iter
            (fun spec ->
              let label =
                Fmt.str "%s/%s as %a" name (Config.mechanism_name mech) Insn.pp_load_spec spec
              in
              check_bool (label ^ ": unchanged") true
                (spec_blind_view (run_capped mech (respecify spec program) max_insns) = reference))
            all_specs)
        spec_blind_mechanisms)
    subjects;
  (* Positive control: compiler-directed selection does read the
     specifiers, so the same rewrites must move its cycle count. *)
  let dual_cc = Config.Dual { table_entries = 256; selection = Config.Compiler_directed } in
  let cycles program max_insns = (Pipeline.stats (run_capped dual_cc program max_insns)).cycles in
  check_bool "dual-256-cc: some rewrite moves cycles" true
    (List.exists
       (fun (_, program, max_insns) ->
         let original = cycles program max_insns in
         List.exists (fun spec -> cycles (respecify spec program) max_insns <> original) all_specs)
       subjects)

(* --- BRIC stats ------------------------------------------------------------ *)

let test_bric_stats () =
  let b = Bric.create 2 in
  ignore (Bric.probe b ~cycle:0 1);  (* miss, allocate *)
  ignore (Bric.probe b ~cycle:2 1);  (* hit *)
  ignore (Bric.probe b ~cycle:2 2);  (* miss, allocate *)
  ignore (Bric.probe b ~cycle:4 3);  (* miss, evicts LRU (reg 1) *)
  let st = Bric.stats b in
  check "probes" 4 st.Bric.br_probes;
  check "hits" 1 st.Bric.br_hits;
  check "evictions" 1 st.Bric.br_evictions

let test_bric_stats_surfaced () =
  let program = program_of "PGP Encode" in
  let cfg =
    Config.with_mechanism (Config.Calc_only { bric_entries = 8 }) Config.default
  in
  let t, _ = Pipeline.run cfg program in
  match Pipeline.bric_stats t with
  | None -> Alcotest.fail "calc-only pipeline must expose BRIC stats"
  | Some st -> check_bool "probes counted" true (st.Bric.br_probes > 0)

(* --- golden report shape --------------------------------------------------- *)

(* A tiny deterministic kernel: strided ld_p loads plus a store, so the
   report exercises sites, speculation and stall attribution.  The
   golden file pins the exact report; to regenerate it after an
   intended report-shape or timing change, see {!Golden}. *)

let golden_program () =
  let layout = Layout.create () in
  ignore (Layout.add layout ~label:"arr" ~align:4 ~init:(Layout.Zeros 4096));
  Program.assemble ~layout
    [ Program.Label "_start"
    ; Program.Insn (Insn.Li { dst = 10; imm = Layout.default_base })
    ; Program.Insn (Insn.Li { dst = 12; imm = 0 })
    ; Program.Insn (Insn.Li { dst = 13; imm = 0 })
    ; Program.Label "loop"
    ; Program.Insn
        (Insn.Load
           { spec = Insn.Ld_p; size = Insn.Word; sign = Insn.Signed; dst = 14
           ; addr = Insn.Base_offset (10, 0) })
    ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 13; src1 = 13; src2 = Insn.R 14 })
    ; Program.Insn (Insn.Store { size = Insn.Word; src = 13; addr = Insn.Base_offset (10, 0) })
    ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 10; src1 = 10; src2 = Insn.I 4 })
    ; Program.Insn (Insn.Alu { op = Insn.Add; dst = 12; src1 = 12; src2 = Insn.I 1 })
    ; Program.Insn
        (Insn.Branch { cond = Insn.Lt; src1 = 12; src2 = Insn.I 500; target = "loop" })
    ; Program.Insn Insn.Halt ]

let golden_report () =
  let cfg =
    Config.with_mechanism
      (Config.Dual { table_entries = 64; selection = Config.Compiler_directed })
      Config.default
  in
  let t, _ = Pipeline.run cfg (golden_program ()) in
  Json.to_string ~pretty:true (Report.to_json ~meta:[ ("workload", Json.String "golden") ] t)
  ^ "\n"

let test_golden_report () = Golden.check ~file:"golden_report.json" (golden_report ())

(* The CSV export of the golden kernel: metric rows, the latency
   histogram's non-empty buckets and the per-site table.  A miss penalty
   past the last bucket bound puts the missing loads in the overflow
   bucket, so its row is pinned too. *)
let test_golden_csv () =
  let cfg =
    Config.with_mechanism
      (Config.Dual { table_entries = 64; selection = Config.Compiler_directed })
      (Config.with_miss_penalty 80 Config.default)
  in
  let t, _ = Pipeline.run cfg (golden_program ()) in
  Golden.check ~file:"golden_report.csv" (Report.to_csv ~meta:[ ("workload", "golden") ] t)

let suite =
  [ Alcotest.test_case "json: printing" `Quick test_json_printing
  ; Alcotest.test_case "json: parse roundtrip" `Quick test_json_parse_roundtrip
  ; Alcotest.test_case "histogram: bucketing" `Quick test_histogram_bucketing
  ; Alcotest.test_case "histogram: merge, reset and json" `Quick test_histogram_merge_reset_json
  ; Alcotest.test_case "trace: events" `Quick test_trace_events
  ; Alcotest.test_case "stall: names" `Quick test_stall_names_distinct
  ; Alcotest.test_case "pipeline: stall invariant" `Quick test_stall_invariant
  ; Alcotest.test_case "pipeline: load sites account" `Quick test_load_sites_account
  ; Alcotest.test_case "pipeline: derived load counters" `Quick
      test_derived_load_counters
  ; Alcotest.test_case "pipeline: specifier insensitivity" `Quick test_spec_insensitivity
  ; Alcotest.test_case "bric: stats" `Quick test_bric_stats
  ; Alcotest.test_case "bric: surfaced" `Quick test_bric_stats_surfaced
  ; Alcotest.test_case "report: golden file" `Quick test_golden_report
  ; Alcotest.test_case "report: golden csv" `Quick test_golden_csv ]
