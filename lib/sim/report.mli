(** Run reports.

    Assembles the full telemetry of one timing simulation — exact
    configuration (provenance), aggregate statistics, stall-cause
    breakdown, predictor-structure counters, aggregate load-latency
    histogram, and the per-load-site table — into one JSON document or
    a flat CSV, and its headline numbers into a text summary.

    Shape guarantees (checked by the golden-file test and the report
    smoke script):
    - [stalls.busy + Σ stalls.<cause> = totals.cycles];
    - the [load_sites] entries' ["count"] fields sum to
      [totals.loads]. *)

val ipc : Pipeline.stats -> float
(** Retired instructions per cycle; [0.] for a run of no cycles. *)

val to_json :
  ?meta:(string * Elag_telemetry.Json.t) list -> Pipeline.t ->
  Elag_telemetry.Json.t
(** [meta] fields (workload name, run timestamps, …) are embedded
    verbatim under a ["meta"] key when non-empty. *)

val to_csv : ?meta:(string * string) list -> Pipeline.t -> string
(** Flat export: one [# key,value] line per [meta] pair; a
    [metric,value] section holding the document's integer totals,
    [busy_cycles], [stall_<cause>], [stall_total] and one
    [load_latency_bucket_le_<bound>] row per non-empty bucket
    ([le_inf] for the overflow bucket); then one CSV row per load
    site. *)

val to_text : name:string -> output:string -> Pipeline.t -> string
(** The summary the CLIs print for a timed run: a ["<name> under
    <mechanism>:"] header, then one line each of totals and IPC, load
    classes, speculation, latency and misses, the stall breakdown, and
    the program's [output] with its newlines joined by commas. *)
