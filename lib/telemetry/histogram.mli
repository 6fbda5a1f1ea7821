(** Fixed-bucket integer histogram for latency-shaped distributions.

    Buckets are cumulative-upper-bound style: a histogram created with
    bounds [|0; 1; 2; 4|] has buckets (-inf,0], (0,1], (1,2], (2,4]
    plus an implicit overflow bucket (4,+inf).  Bucketing is O(log n)
    and observation never allocates, so it is safe inside the
    per-retired-instruction path of the timing simulator. *)

type t

val create : bounds:int array -> t
(** [bounds] must be strictly increasing and non-empty; raises
    [Invalid_argument] otherwise.  The array is copied. *)

val reset : t -> unit
(** Forget every observation, keeping the bounds: [t] is then as
    {!create} left it. *)

val load_latency_bounds : int array
(** The standard bucket layout for load latencies: 0 (successful
    [ld_e]), 1 (successful [ld_p]), 2, 3, 4, 8, 16, 32, 64 cycles. *)

val observe : t -> int -> unit

val merge_into : into:t -> t -> unit
(** [merge_into ~into t] adds every observation of [t] to [into], as
    if each had been observed there too.  Raises [Invalid_argument]
    when the bounds differ. *)

val count : t -> int

val sum : t -> int

val max_seen : t -> int option

val bucket_counts : t -> (int option * int) list
(** [(Some upper_bound, count)] per bucket in order, the final
    [(None, count)] being the overflow bucket. *)

val percentile : t -> float -> int option
(** [percentile t p] (p in [0,100]): the smallest bucket upper bound
    such that at least p% of observations fall at or below it; the
    maximum observed value when that lands in the overflow bucket;
    [None] when empty. *)

val to_json : t -> Json.t
(** [{"count";"sum";"max";"buckets":[{"le";"count"},...]}]; overflow
    bucket has ["le": "inf"]; empty buckets are elided to keep per-site
    reports small. *)
