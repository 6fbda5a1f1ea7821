(** Set-associative cache model with LRU replacement (tags only —
    data correctness is the emulator's job).  The paper's
    configuration is direct-mapped ([ways = 1], the default); higher
    associativity exists for the ablation benches. *)

type t

val create : ?ways:int -> size_bytes:int -> line_bytes:int -> unit -> t
(** An empty cache: {!reset} after allocation. *)

val reset : t -> unit
(** Invalidate every line and zero the counters, keeping the
    geometry. *)

val line : t -> int -> int
(** The line an address falls in: addresses share a line exactly when
    their [line]s are equal. *)

val probe : t -> int -> bool
(** Pure hit test: no statistics, no fill.  Used when evaluating
    speculative accesses during issue-cycle search. *)

val access : t -> int -> bool
(** Load-side access: counts, and fills the line on a miss. *)

val access_store : t -> int -> bool
(** Store-side access: write-through, no write-allocate. *)

val stats : t -> int * int
(** (accesses, misses). *)
