(** Generators for every table and figure in the paper's evaluation
    section, each printing measured values side by side with the
    paper's, plus the design-choice ablations and the committed
    pipeline report.  All grid points are simulated on the engine's
    worker pool; rows are merged in suite order, so output is identical
    at every [-j] setting. *)

val mean : float list -> float option
(** Arithmetic mean; [None] on the empty list (no silent zeros). *)

val mean_exn : float list -> float
(** @raise Invalid_argument on the empty list. *)

val grid : unit -> Engine.Job.t list
(** The full evaluation grid — every job the paper's tables and
    figures consume: SPEC workloads crossed with
    {!Elag_sim.Config.Mechanism.all} plus the profile-reclassified
    dual-path point of Table 3, and MediaBench workloads under
    baseline and dual-cc.  This is the sweep behind {!run_all}. *)

val print_table2 : Engine.t -> unit
val print_fig5a : Engine.t -> unit
val print_fig5b : Engine.t -> unit
val print_fig5c : Engine.t -> unit
val print_table3 : Engine.t -> unit
val print_table4 : Engine.t -> unit

val run_all : Engine.t -> unit
(** Pre-warms the engine's caches with {!grid} (one parallel sweep over
    every job), then prints every artifact. *)

val print_ablation : Engine.t -> unit
(** Dual-path compiler-directed speedup on 130.li, 072.sc and
    023.eqntott against design choices: the zero-latency, never-missing
    load ceiling, issue width, cache associativity, miss penalty,
    compile-time unroll factor and table size. *)

val write_pipeline_report : Engine.t -> unit
(** Print baseline and dual-cc cycles and speedup per workload, and
    write [BENCH_pipeline.json] in the current directory: schema
    ["elag.bench.v1"], the full dual-cc configuration, and per workload
    its instructions, cycles, IPC, speedup and dual-cc stall
    breakdown. *)
