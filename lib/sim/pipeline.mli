(** Cycle-based timing model of the paper's six-stage in-order
    superscalar pipeline (IF ID1 ID2 EXE MEM WB) with dual
    early-address-generation support.

    Timing conventions — an instruction issued at cycle [c] occupies
    ID1 at [c-2], ID2 at [c-1], EXE at [c], MEM at [c+1]:
    - ALU results feed dependents issued at [c+1];
    - a normal load feeds dependents at [c+2] (the Figure 1a one-cycle
      load-use stall), plus the miss penalty on a D-cache miss;
    - a successful [ld_p] (table probe at ID1, speculative access at
      ID2, verified at end of EXE) feeds dependents at [c+1];
    - a successful [ld_e] (R_addr full adder, no verification wait)
      feeds dependents at [c]; dispatch is elastic — the access goes
      out on the first cycle the base value reaches R_addr, and a base
      only ready at EXE gains nothing (the Figure 1c worst case);
    - speculative accesses consume data-cache-port bandwidth; wrong
      speculation costs only that bandwidth (the paper's "extra
      load"), and a correct-address speculative miss lets the normal
      access merge with the in-flight fill. *)

type stats =
  { mutable cycles : int
  ; mutable instructions : int
  ; mutable loads : int
  ; mutable stores : int
  ; mutable loads_n : int      (** dynamic loads executed as ld_n *)
  ; mutable loads_p : int
  ; mutable loads_e : int
  ; mutable table_attempts : int
  ; mutable table_successes : int
  ; mutable calc_attempts : int
  ; mutable calc_successes : int
  ; mutable wasted_spec : int  (** dispatched but not forwarded *)
  ; mutable load_latency_sum : int
  ; mutable icache_misses : int
  ; mutable dcache_accesses : int
  ; mutable dcache_misses : int
  ; mutable btb_mispredicts : int }

type load_site =
  { site_pc : int  (** static PC of the load *)
  ; site_spec : Elag_isa.Insn.load_spec  (** static specifier *)
  ; mutable site_table_attempts : int
  ; mutable site_table_successes : int
  ; mutable site_calc_attempts : int
  ; mutable site_calc_successes : int
  ; mutable site_wasted_spec : int
  ; mutable site_dcache_misses : int
  ; site_latency : Elag_telemetry.Histogram.t
    (** one observation per dynamic execution: its [count] is the
        execution count, its [sum] the total latency *) }
(** Per-static-load telemetry: one record per load PC, so a
    reproduction gap ("this workload speeds up less than the paper")
    can be localized to the individual loads that misbehave. *)

type t

val create : Config.t -> t
(** Allocate a pipeline for the config, then {!reset} it. *)

val reset : t -> Config.t -> unit
(** [reset t cfg] re-arms [t] for [cfg], whatever [t] ran before, a
    run that raised included: a run after it leaves {!stats},
    {!stall_breakdown}, {!busy_cycles}, {!load_sites}, {!table_stats}
    and {!bric_stats} equal to what [create cfg] and the same run
    leave.  It refills in place every structure whose size [cfg]
    keeps and allocates only those whose size it changes.  The load
    sites of the program last run are kept and zeroed; a retire from
    another program binds that program a fresh set.  The tracer is
    removed. *)

val process : t -> Elag_isa.Program.t -> int -> int -> bool -> int -> unit
(** Feed one retired instruction (same signature as
    {!Emulator.observer}).  The static facts about it are read from
    the program's tables; the pipeline decodes nothing. *)

val set_tracer : t -> (int -> Elag_isa.Insn.t -> int -> int -> unit) -> unit
(** Install a per-instruction hook [(pc, insn, issue_cycle, latency)],
    used by the pipeline-visualization example. *)

val observer : t -> Emulator.observer

val stats : t -> stats
(** A snapshot of the run so far.  The load, speculation and latency
    fields are the sums of {!load_sites}. *)

val config : t -> Config.t

val table_stats : t -> Elag_predict.Addr_table.stats option

val bric_stats : t -> Elag_predict.Bric.stats option
(** The calc path's base-register cache: the N-entry BRIC under
    [calc-N], R_addr (a one-entry BRIC) under [dual-*]; [None]
    otherwise.  Probes are calc-path loads at commit, hits are probes
    that found their base register bound and usable, and evictions
    are binding switches. *)

(** {2 Fault-injection hooks}

    Direct access to the live predictor structures, so
    {!Elag_verify.Fault} can corrupt them mid-run and prove the
    timing-only-hint invariant: corrupted prediction state may cost
    cycles but can never change architectural results.  [None] when
    the configured mechanism does not instantiate the structure. *)

val btb : t -> Elag_predict.Btb.t
val addr_table : t -> Elag_predict.Addr_table.t option
val bric : t -> Elag_predict.Bric.t option
(** The BRIC under [calc-N], R_addr under [dual-*]. *)

val current_cycle : t -> int
(** The current issue cycle, for cycle-relative corruption (e.g.
    {!Elag_predict.Bric.delay}). *)

val busy_cycles : t -> int
(** Distinct cycles in which at least one instruction issued. *)

val stall_breakdown : t -> (Elag_telemetry.Stall.t * int) list
(** Non-issuing cycles charged to their binding cause, in canonical
    order and including the final drain.  The attribution invariant
    [busy_cycles t + stall_total t = (stats t).cycles] holds by
    construction; see the implementation header for the charging
    rules. *)

val stall_total : t -> int

val load_sites : t -> load_site list
(** Every load of the program last run that executed since {!create}
    or the last {!reset}, ascending by pc.  These records, one per
    load number of that program, are the only place the per-load
    counters are kept. *)

val load_latency_histogram : t -> Elag_telemetry.Histogram.t
(** Aggregate effective-latency distribution over all loads: a fresh
    merge of the sites' histograms. *)

val run : ?max_insns:int -> Config.t -> Elag_isa.Program.t -> t * string
(** Emulate the program under this configuration; returns the pipeline
    itself (for stats and telemetry extraction) and the program's
    printed output. *)

val simulate :
  ?max_insns:int -> Config.t -> Elag_isa.Program.t -> stats * string
(** {!run}, keeping only the flat statistics record. *)
