(* The curated fault-injection matrix over the workload suite.

   Matrix-design constraints:
   - each fault target rides {!Fault.preset_of_target}, a mechanism
     that instantiates its structure;
   - the three matrix workloads are the suite's cheapest with
     substantial load traffic, keeping the whole matrix (baselines
     plus faulted runs) affordable inside [dune runtest];
   - triggers are retire counts well inside every workload's dynamic
     length, with periods so repeated corruption keeps hitting warmed
     state.

   Plans are curated: corruptions are chosen to be adversarial
   (detached or misdirected predictor state can lose cycles, not gain
   them), and the determinism of (config, program, plan) makes the
   verified [cycles >= clean] inequality permanent. *)

module Config = Elag_sim.Config
module Suite = Elag_workloads.Suite
module Fault = Elag_verify.Fault

type entry =
  { workload : string
  ; mechanism : string
  ; plan : Fault.plan }

let matrix_workloads = [ "PGP Decode"; "147.vortex"; "PGP Encode" ]

(* Per-workload fault plans; [i] varies seeds/slots/triggers so the
   three workloads don't share identical corruption points. *)
let plans_for i w =
  let p name target ~seed ~first ~period =
    { workload = w
    ; mechanism = Fault.preset_of_target target
    ; plan = { Fault.name = w ^ "/" ^ name; seed; first; period; target } }
  in
  [ p "table-scramble"
      (Fault.Table_scramble { slot = 17 + (31 * i) })
      ~seed:(1001 + i) ~first:(50_000 + (7_000 * i))
      ~period:(Some 100_000)
  ; p "table-pa"
      (Fault.Table_pa { slot = 5 + (13 * i) })
      ~seed:(2002 + i) ~first:(60_000 + (9_000 * i)) ~period:(Some 50_000)
  ; p "table-state"
      (Fault.Table_state { slot = 40 + (11 * i) })
      ~seed:(3003 + i) ~first:(45_000 + (5_000 * i)) ~period:(Some 80_000)
  ; p "bric-flush" Fault.Bric_flush ~seed:(4004 + i)
      ~first:(40_000 + (6_000 * i)) ~period:(Some 75_000)
  ; p "bric-delay"
      (Fault.Bric_delay { cycles = 8 })
      ~seed:(5005 + i) ~first:(30_000 + (4_000 * i)) ~period:(Some 60_000)
  ; p "raddr-unbind" Fault.Raddr_unbind ~seed:(6006 + i)
      ~first:(20_000 + (3_000 * i)) ~period:(Some 40_000)
  ; p "btb-target"
      (Fault.Btb_target { slot = 3 + (29 * i) })
      ~seed:(7007 + i) ~first:(10_000 + (2_000 * i)) ~period:(Some 30_000)
  ]

let fault_matrix =
  List.concat (List.mapi plans_for matrix_workloads)
  @ [ { workload = "PGP Decode"
      ; mechanism = "dual-cc"
      ; plan =
          { Fault.name = "PGP Decode/btb-scramble"
          ; seed = 8008
          ; first = 15_000
          ; period = Some 35_000
          ; target = Fault.Btb_scramble { slot = 23 } } } ]

let fault_smoke =
  List.filter (fun e -> e.workload = "PGP Decode") fault_matrix

let config_of name =
  Config.with_mechanism (Config.Mechanism.of_string_exn name) Config.default

let run_fault_suite ?(entries = fault_matrix) engine =
  (* One fault-free baseline per distinct (workload, mechanism). *)
  let baselines = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = (e.workload, e.mechanism) in
      if not (Hashtbl.mem baselines key) then begin
        let w = Suite.find e.workload in
        let cfg = config_of e.mechanism in
        Hashtbl.add baselines key
          (Fault.baseline cfg (Engine.program engine w))
      end)
    entries;
  Engine.map engine
    (fun e ->
      let w = Suite.find e.workload in
      let cfg = config_of e.mechanism in
      let baseline = Hashtbl.find baselines (e.workload, e.mechanism) in
      (e, Fault.run_plan ~baseline cfg (Engine.program engine w) e.plan))
    entries
