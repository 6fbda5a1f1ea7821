(** Immediate dominators, via the Cooper–Harvey–Kennedy iterative
    algorithm over an [int] array indexed like {!Cfg} blocks. *)

type t

val compute : Cfg.t -> t

val idom : t -> int -> int option
(** Immediate dominator of a reachable block; the entry block is its
    own.  [None] for an unreachable block. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: does block [a] dominate block [b]?  Reflexive,
    also for unreachable blocks; otherwise [false] when either is
    unreachable. *)
