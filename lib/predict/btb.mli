(** Branch target buffer: direct-mapped, tagged, 2-bit saturating
    counters (the paper's 1K-entry configuration).  Allocation happens
    on taken branches only. *)

type t

type prediction = { pred_taken : bool; pred_target : int }

val create : int -> t

val reset : t -> unit
(** Invalidate every slot and zero the misprediction count: [t] is
    then as {!create} left it. *)

val predict : t -> int -> prediction
(** Prediction for the control instruction at [pc]; a miss predicts
    not-taken, falling through to [pc + 1]. *)

val update : t -> int -> taken:bool -> target:int -> bool
(** Resolve with the actual outcome, updating counters/target.
    Returns whether the earlier prediction was correct (direction, and
    target when taken). *)

val misprediction_count : t -> int

(** {2 Fault-injection hooks} *)

val size : t -> int

val slot_valid : t -> int -> bool
(** Whether a slot currently holds an allocated entry. *)

val corrupt : t -> slot:int -> ?target:int -> ?tag:int -> unit -> unit
(** Overwrite the given fields of a slot.  Corrupting only [target] is
    the provably-adversarial fault: it can turn correct taken-predictions
    wrong but never the reverse.  Raises [Invalid_argument] out of
    range. *)
