(** Parallel experiment engine.

    An engine is an explicit handle bundling a worker-pool width with
    domain-safe caches of per-workload artifacts: the program of each
    variant, the address profile, and per-(configuration, variant)
    timing results.  Every consumer receives an engine and asks it for
    artifacts, so two engines never share (or corrupt) state, and a
    single engine may be driven from many domains at once.

    Determinism: compilation, profiling and simulation are pure
    functions of (workload source, configuration), jobs are merged in
    submission order ({!Pool}), and caches only dedupe identical
    computations — so results are byte-identical at every [jobs]
    setting. *)

module Config = Elag_sim.Config
module Pipeline = Elag_sim.Pipeline
module Profile = Elag_harness.Profile
module Workload = Elag_workloads.Workload

type t

val create : ?jobs:int -> unit -> t
(** [create ()] sizes the pool with [Pool.default_jobs ()].  The
    machine model is [Config.default] unless a call passes [?config]. *)

(** Which classification of the program a result is measured on. *)
type variant = Classified | Reclassified

val program : ?variant:variant -> t -> Workload.t -> Elag_isa.Program.t
(** Compiled with the Section 4 heuristics ([Classified], the default),
    or that program reclassified by its address profile
    ([Reclassified]); lint-checked and cached per (workload, variant). *)

val profile : t -> Workload.t -> Profile.t

val simulate :
  ?variant:variant -> ?config:Config.t -> t -> Workload.t ->
  Config.mechanism -> Pipeline.stats
(** Timing-simulate the workload under the mechanism (and optional
    machine-config override), verifying the emitted output against the
    workload's pinned expectation; cached per (workload, variant,
    full configuration). *)

val base_cycles : ?config:Config.t -> t -> Workload.t -> int

val speedup :
  ?variant:variant -> ?config:Config.t -> t -> Workload.t ->
  Config.mechanism -> float
(** Baseline cycles / mechanism cycles under the same machine config. *)

(** Static and dynamic load-class distribution of a program variant,
    using the profile's per-pc execution counts. *)
type distribution =
  { static_nt : float; static_pd : float; static_ec : float
  ; dynamic_nt : float; dynamic_pd : float; dynamic_ec : float
  ; rate_nt : float option  (* ideal-predictor rate over NT loads *)
  ; rate_pd : float option
  ; total_dynamic_loads : int }

val distribution : ?variant:variant -> t -> Workload.t -> distribution

(** One point of the evaluation grid. *)
module Job : sig
  type t =
    { workload : Workload.t
    ; mechanism : Config.mechanism
    ; variant : variant }
  (** Simulated on [Config.default] with [mechanism] swapped in. *)

  val make : ?variant:variant -> Workload.t -> Config.mechanism -> t

  val name : t -> string
  (** ["workload/mechanism[+prof]"], unique within a grid. *)
end

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Deterministic parallel map on the engine's pool: results in input
    order regardless of [jobs]. *)

val run_jobs : t -> Job.t list -> (Job.t * Pipeline.stats) list
(** Simulate every job on the pool; results in job order. *)
