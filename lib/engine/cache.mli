(** Domain-safe single-flight memo table.

    Concurrent lookups of different keys proceed in parallel;
    concurrent lookups of the same key serialize on a per-key lock so
    the compute function runs at most once per key.  Every cache hangs
    off an explicit handle, and all mutation is lock-protected. *)

type ('k, 'v) t

val create : ?size:int -> unit -> ('k, 'v) t

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_compute t key f] returns the cached value for [key],
    computing it with [f] (exactly once, even under contention) on the
    first lookup.  [f] must not re-enter the cache with the same [key]
    (per-key locks are not reentrant); distinct keys may be consulted
    freely. *)

val length : ('k, 'v) t -> int
(** Number of populated entries. *)
