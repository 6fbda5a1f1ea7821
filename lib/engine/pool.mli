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

(** {2 Supervised runs}

    {!run} has all-or-nothing failure semantics: any job's exception
    eventually aborts the caller.  Long unattended runs (fuzz
    campaigns, overnight sweeps) instead need graceful degradation —
    one hung or crashed job must not take down the other thousand.
    {!run_supervised} gives every job a wall-clock deadline and reports
    per-job outcomes.  It shares {!run}'s worker loop. *)

type failure =
  | Job_failed of { message : string }
    (** The job raised; [message] is its exception.  Jobs are
        deterministic, so a failed job is not run again. *)
  | Job_timeout of { timeout_ms : int }
    (** The job overran its wall-clock budget
        ({!Elag_verify.Deadline.Job_timeout}). *)

type 'b outcome = ('b, failure) result

val pp_failure : failure Fmt.t

val failure_to_string : failure -> string

val run_supervised :
  ?timeout_ms:int ->
  jobs:int ->
  (Elag_verify.Deadline.t -> 'a -> 'b) ->
  'a array ->
  'b outcome array
(** [run_supervised ~jobs f items] is {!run} with supervision: each
    job runs once and receives a fresh deadline ([timeout_ms] of wall
    clock; omitted = never) that it must poll
    ({!Elag_verify.Deadline.check}, typically from a
    per-retired-instruction observer).  Cancellation is cooperative — a
    job that never polls cannot be reclaimed.  Outcomes come back in
    item order, [Error] for jobs that raised or timed out.  Results are
    deterministic at every [jobs] setting whenever [f] is pure and no
    job times out.  Raises [Invalid_argument] on a non-positive
    [timeout_ms]. *)

val outcome_failures : 'b outcome array -> (int * failure) list
(** The failed indices of a supervised run, in index order. *)
