(** Deterministic fixed-size [Domain] worker pool.

    Jobs are indexed; workers claim the next unclaimed index from a
    shared atomic counter and write the result into that index's slot.
    Which domain runs which job is scheduling-dependent, but the merged
    result array is always in job order, so any pure job function
    yields byte-identical output at every [jobs] setting. *)

exception Failures of (int * string) list
(** Two or more jobs failed; carries every [(job index, message)] in
    index order, so a batch with several broken inputs reports all of
    them at once instead of one per re-run. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [run ~jobs f items] applies [f] to every item on up to [jobs]
    domains (clamped to [1 .. Array.length items]) and returns the
    results in item order.  Every job runs regardless of other jobs'
    failures; after all workers drain, a single failing job's exception
    is re-raised with its backtrace (so specific handlers still match),
    and two or more raise {!Failures}. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!run} over a list, preserving order. *)
