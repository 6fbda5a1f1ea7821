(** Metric registry: named counters and histograms with machine-
    readable emitters.

    A registry is the unit of export — whoever owns one registers
    metrics up front (or on first use), mutates them on the hot path,
    and emits the whole set as JSON or CSV at the end of a run.
    Registration order is preserved in the output, so reports are
    deterministic and diffable. *)

type t

type counter

val create : unit -> t

val counter : t -> string -> counter
(** Register (or look up) a counter by name.  Registering the same
    name twice returns the same counter; a name already used by a
    histogram raises [Invalid_argument]. *)

val incr : ?by:int -> counter -> unit

val set : counter -> int -> unit

val value : counter -> int

val attach_histogram : t -> string -> Histogram.t -> unit
(** Register an externally-owned histogram (e.g. one maintained on the
    simulator hot path) under [name], replacing any previous metric of
    that name. *)

val to_json : t -> Json.t
(** [{"counters": {...}, "histograms": {...}}]. *)

val to_csv : t -> string
(** One [metric,value] line per counter, then one
    [metric_bucket_le,count] line per non-empty histogram bucket. *)
