(** Differential fuzzing campaign driver.

    One iteration = one seeded program (EPA-32 typed construction, or
    MiniC through the front-end every [minic_every]-th iteration)
    linted, checked once by the differential oracle under the first
    configured preset and timed under each of the others, with a
    seeded fault plan layered on every [fault_every]-th iteration.
    The retire stream depends on the program alone, so one oracle
    verdict covers every preset.  Iterations are pure functions of
    their seed and fan out on the pool ({!Elag_engine.Pool.run}), so
    the summary is byte-identical at every jobs setting.  Each run is
    bounded by its program's instruction budget; an iteration that
    escapes with an exception becomes a [failures] entry without
    disturbing the rest.

    EPA findings are shrunk against the oracle's failure signature and
    persisted to the corpus (deduplicated by fingerprint, written
    serially after the pool drains). *)

type config =
  { seed : int
  ; iters : int
  ; mechanisms : Elag_sim.Config.mechanism list
  ; gen_params : Gen.params
  ; minic_every : int
    (** every k-th iteration compiles a random MiniC source instead of
        generating EPA-32 directly; 0 disables *)
  ; fault_every : int
    (** every k-th iteration layers a seeded fault plan; 0 disables *)
  ; mutation : string option
    (** planted reference mutation ({!Gen.mutation_names}) — the
        guarded test hook proving the campaign catches real bugs *)
  ; corpus_dir : string option  (** where minimal repros are persisted *) }

val default : config
(** seed 0, 100 iterations, all mechanisms, defaults for the rest. *)

type kind = Divergence | Fault_violation | Lint_reject | Crash

type finding =
  { f_iter : int
  ; f_seed : int
  ; f_source : string  (** ["epa"] or ["minic"] *)
  ; f_mechanism : string
  ; f_kind : kind
  ; f_detail : string  (** oracle signature / invariant / exception *)
  ; f_report : Elag_telemetry.Json.t
  ; f_listing : string
  ; f_insns : int
  ; f_shrunk : bool
  ; f_fingerprint : string }

type summary =
  { cfg : config
  ; jobs : int
  ; iterations : int
  ; oracle_runs : int
    (** preset runs covered by the oracle's verdict: one per preset
        run, the oracle's own run included *)
  ; fault_runs : int
  ; findings : finding list
  ; failures : (int * string) list
    (** [(iteration, exception)] for iterations that escaped with an
        exception *)
  ; saved : string list  (** corpus metadata paths written this run *) }

val run : ?jobs:int -> config -> summary
(** Run the campaign.  [jobs] (default 1) sizes the worker pool; the
    summary is byte-identical at every [jobs] setting. *)

val ok : summary -> bool
(** No findings and no iteration failures. *)

val summary_json : summary -> Elag_telemetry.Json.t
(** Deterministic summary (config echo, metric counters, findings,
    failures, corpus paths); never includes [jobs] or wall-clock
    values, so equal campaigns print byte-identical reports. *)
