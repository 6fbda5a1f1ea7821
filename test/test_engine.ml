(* Engine tests: the deterministic Domain pool, the single-flight
   artifact cache, the handle-based replacement for the old global
   Context, and the headline determinism pin — a 3-workload ×
   3-mechanism sweep gives identical statistics at -j 4 and -j 1. *)

module Pool = Elag_engine.Pool
module Cache = Elag_engine.Cache
module Engine = Elag_engine.Engine
module Config = Elag_sim.Config
module Pipeline = Elag_sim.Pipeline
module Suite = Elag_workloads.Suite

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- pool ------------------------------------------------------------------ *)

let test_pool_merges_in_order () =
  let items = Array.init 100 (fun i -> i) in
  let expected = Array.to_list (Array.map (fun i -> i * i) items) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "squares at jobs=%d" jobs)
        expected
        (Array.to_list (Pool.run ~jobs (fun i -> i * i) items)))
    [ 1; 2; 4; 7 ];
  Alcotest.(check (list int))
    "empty input" []
    (Array.to_list (Pool.run ~jobs:4 (fun i -> i) [||]))

let test_pool_propagates_single_failure () =
  (* exactly one failing job: its own exception survives, so specific
     handlers (Compile.Error etc.) still fire *)
  let f i = if i = 3 then failwith (string_of_int i) else i in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "identity kept at jobs=%d" jobs)
        (Failure "3")
        (fun () -> ignore (Pool.run ~jobs f (Array.init 10 (fun i -> i)))))
    [ 1; 4 ]

let test_pool_aggregates_failures () =
  (* several failing jobs: every one is reported, in index order, even
     the ones after the first failure *)
  let f i = if i mod 3 = 0 then failwith (string_of_int i) else i in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "all failures at jobs=%d" jobs)
        (Pool.Failures
           [ (0, "Failure(\"0\")")
           ; (3, "Failure(\"3\")")
           ; (6, "Failure(\"6\")")
           ; (9, "Failure(\"9\")") ])
        (fun () -> ignore (Pool.run ~jobs f (Array.init 10 (fun i -> i)))))
    [ 1; 4 ]

let test_pool_runs_all_domains () =
  (* every item processed exactly once even with more domains than items *)
  let hits = Atomic.make 0 in
  let r = Pool.run ~jobs:16 (fun i -> Atomic.incr hits; i + 1) (Array.init 5 (fun i -> i)) in
  check "all processed" 5 (Atomic.get hits);
  Alcotest.(check (list int)) "results" [ 1; 2; 3; 4; 5 ] (Array.to_list r)

(* --- cache ----------------------------------------------------------------- *)

let test_cache_single_flight () =
  let c : (int, int) Cache.t = Cache.create () in
  let computations = Atomic.make 0 in
  let value_of key =
    Cache.find_or_compute c key (fun () ->
        Atomic.incr computations;
        key * 10)
  in
  (* 24 concurrent lookups over 3 keys: every lookup sees the right
     value and each key is computed exactly once *)
  let results = Pool.run ~jobs:4 (fun i -> value_of (i mod 3)) (Array.init 24 (fun i -> i)) in
  Array.iteri (fun i v -> check (Printf.sprintf "slot %d" i) ((i mod 3) * 10) v) results;
  check "computed once per key" 3 (Atomic.get computations);
  check "populated entries" 3 (Cache.length c)

(* --- engine handle --------------------------------------------------------- *)

let pgp () = Suite.find "PGP Encode"

let dual_cc = Config.Dual { table_entries = 256; selection = Config.Compiler_directed }

let test_engine_caches () =
  let e = Engine.create ~jobs:1 () in
  let w = pgp () in
  check_bool "programs cached" true (Engine.program e w == Engine.program e w);
  check_bool "simulations cached" true
    (Engine.simulate e w Config.No_early == Engine.simulate e w Config.No_early);
  (* two engines share nothing *)
  let e2 = Engine.create ~jobs:1 () in
  check_bool "handles isolated" true (not (Engine.program e w == Engine.program e2 w))

let test_distribution_sums () =
  let e = Engine.create ~jobs:1 () in
  let d = Engine.distribution e (pgp ()) in
  let close a b = abs_float (a -. b) < 0.01 in
  check_bool "static sums to 100" true
    (close (d.Engine.static_nt +. d.Engine.static_pd +. d.Engine.static_ec) 100.);
  check_bool "dynamic sums to 100" true
    (close (d.Engine.dynamic_nt +. d.Engine.dynamic_pd +. d.Engine.dynamic_ec) 100.);
  check_bool "dynamic loads counted" true (d.Engine.total_dynamic_loads > 10_000)

let test_speedup_sane () =
  let e = Engine.create ~jobs:1 () in
  let s = Engine.speedup e (pgp ()) dual_cc in
  check_bool "speedup in a sane band" true (s >= 0.9 && s <= 3.0)

let test_job_names () =
  let j = Engine.Job.make (pgp ()) dual_cc in
  check_str "job name" "PGP Encode/dual-256-cc" (Engine.Job.name j);
  let jp = Engine.Job.make ~variant:Engine.Reclassified (pgp ()) dual_cc in
  check_str "reclassified job name" "PGP Encode/dual-256-cc+prof" (Engine.Job.name jp)

(* --- determinism pin -------------------------------------------------------- *)

(* The acceptance property of the whole redesign: the same jobs on a
   single domain and on four domains yield identical statistics, every
   field an int, in the same order.  Fresh engines each time, so every
   simulation really re-runs. *)
let pin_jobs () =
  List.concat_map
    (fun name ->
      let w = Suite.find name in
      List.map
        (fun m -> Engine.Job.make w (Config.Mechanism.of_string_exn m))
        [ "table-256-hw"; "calc-16"; "dual-256-cc" ])
    [ "072.sc"; "PGP Encode"; "PGP Decode" ]

let test_parallel_matches_serial () =
  let results jobs =
    List.map
      (fun (j, s) -> (Engine.Job.name j, s))
      (Engine.run_jobs (Engine.create ~jobs ()) (pin_jobs ()))
  in
  let serial = results 1 in
  check_bool "every job simulated" true
    (List.length serial = List.length (pin_jobs ())
    && List.for_all (fun (_, s) -> s.Pipeline.cycles > 0) serial);
  check_bool "-j 4 identical to -j 1" true (serial = results 4)

let suite =
  [ Alcotest.test_case "pool: order" `Quick test_pool_merges_in_order
  ; Alcotest.test_case "pool: single failure keeps identity" `Quick
      test_pool_propagates_single_failure
  ; Alcotest.test_case "pool: failures aggregate" `Quick
      test_pool_aggregates_failures
  ; Alcotest.test_case "pool: full coverage" `Quick test_pool_runs_all_domains
  ; Alcotest.test_case "cache: single flight" `Quick test_cache_single_flight
  ; Alcotest.test_case "engine: caching" `Quick test_engine_caches
  ; Alcotest.test_case "engine: distribution sums" `Quick test_distribution_sums
  ; Alcotest.test_case "engine: speedup sane" `Quick test_speedup_sane
  ; Alcotest.test_case "engine: job names" `Quick test_job_names
  ; Alcotest.test_case "engine: -j4 = -j1 (determinism pin)" `Quick
      test_parallel_matches_serial ]
