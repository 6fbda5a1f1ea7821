(** PC-indexed, direct-mapped address prediction table (paper §3.2.2).
    Each entry holds \{tag, PA, ST, STC\} driven by the Figure 3 state
    machine; a probe that misses makes no prediction, and entries are
    (re)allocated at update time. *)

type t

val create : int -> t
(** [create entries]; raises [Invalid_argument] on a non-positive
    size. *)

val reset : t -> unit
(** Invalidate every slot and zero the counters: [t] is then as
    {!create} left it. *)

val size : t -> int

val hit : t -> int -> bool
(** Pure tag check for the load at [pc].  No statistics; used during
    issue-cycle search. *)

val predicted_address : t -> int -> int
(** The predicted address in [pc]'s slot; a prediction for [pc] only
    when [hit t pc]. *)

val peek : t -> int -> int option
(** [Some predicted_address] on a tag hit; pure, like {!hit}. *)

val probe : t -> int -> bool
(** The decode-stage access: like {!hit}, but counts a probe, and a
    hit on a tag match.  The pipeline makes one per load it routes to
    the table, at the load's issue cycle. *)

val update : t -> int -> int -> bool
(** [update t pc ca]: feed the computed address at the MEM stage;
    allocates/replaces on tag mismatch.  Returns whether the predicted
    address matched. *)

type stats = { st_probes : int; st_hits : int; st_correct : int }

val stats : t -> stats

(** {2 Fault-injection hooks}

    Direct slot access for {!Elag_verify.Fault}, which corrupts
    \{tag, PA, ST, STC\} state mid-run to prove predictions are
    timing-only hints.  Not used on the simulation fast path. *)

val slot : t -> int -> int * Stride_entry.t
(** [(tag, entry)] at a slot index ([tag = -1] when invalid); the
    stride entry is the live mutable record.  Raises
    [Invalid_argument] out of range. *)

val set_tag : t -> int -> int -> unit
(** Overwrite a slot's tag (e.g. [-1] to invalidate, or a bogus pc to
    detach the entry from its load).  Raises [Invalid_argument] out of
    range. *)
