(** Per-block virtual-register liveness by backwards iterative
    dataflow over bitsets of [0 .. f.next_vreg - 1].  Used by dead-code
    elimination, loop-invariant code motion and the register
    allocator's interval construction. *)

type t

val compute : Cfg.t -> t
(** Raises [Invalid_argument] when an instruction of a reachable block
    names a virtual register at or beyond [next_vreg]. *)

val live_in : t -> int -> Bitset.t
(** Virtual registers live on entry to the block (empty when it is
    unreachable).  Shared with [t]: copy before mutating. *)

val live_out : t -> int -> Bitset.t
(** Virtual registers live on exit from the block; shared likewise. *)
