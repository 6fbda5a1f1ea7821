(** The repository's standing verification suites: the curated fault
    matrix, the whole-suite lint pass, and the whole-suite differential
    oracle, all driven through an {!Engine} so artifacts are shared
    with ordinary experiments.

    The fault matrix pairs each plan with the workload and mechanism it
    corrupts.  Structures exist only under the mechanisms that
    instantiate them (address table under [table-*]/[dual-*], BRIC
    under [calc-*], R_addr under [dual-*]), so the matrix spans four
    mechanism presets to cover every fault target and all three load
    specifiers on three workloads.  Everything is seeded and
    retire-count triggered: the suite is deterministic and its
    once-verified invariants are pinned forever. *)

module Fault = Elag_verify.Fault
module Lint = Elag_verify.Lint
module Oracle = Elag_verify.Oracle

type entry =
  { workload : string  (** suite workload name *)
  ; mechanism : string  (** mechanism preset name *)
  ; plan : Fault.plan }

val fault_matrix : entry list
(** The shipped suite: >= 20 seeded plans over three workloads,
    covering every fault target. *)

val fault_smoke : entry list
(** One plan per fault-target class on the cheapest workload — the CI
    smoke subset. *)

val run_fault_suite :
  ?entries:entry list -> Engine.t -> (entry * Fault.outcome) list
(** Run the plans (default {!fault_matrix}), sharing one fault-free
    baseline per (workload, mechanism) pair; results in matrix
    order. *)

val run_lint_suite : Engine.t -> (string * Lint.report) list
(** Lint the compiled (and engine-cached) program of every suite
    workload. *)

val run_oracle_suite :
  ?mechanism:Elag_sim.Config.mechanism ->
  ?workloads:Elag_workloads.Workload.t list ->
  Engine.t ->
  (string * Oracle.report) list
(** Differential-oracle the full timed simulation of every workload
    (default: the whole suite under [dual-cc]). *)
