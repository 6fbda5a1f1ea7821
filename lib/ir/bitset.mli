(** Fixed-capacity mutable sets of small non-negative integers, one bit
    per element: the virtual-register sets of {!Liveness} and the block
    sets of {!Loops}. *)

type t

val create : int -> t
(** [create n]: the empty set with room for [0 .. n-1]. *)

val copy : t -> t

val mem : t -> int -> bool
(** [false] for elements beyond the capacity. *)

val add : t -> int -> unit
(** Raises [Invalid_argument] beyond the capacity. *)

val remove : t -> int -> unit

val iter : (int -> unit) -> t -> unit
(** In ascending order. *)

val elements : t -> int list
(** In ascending order. *)

val flow : use:t -> def:t -> out:t -> into:t -> bool
(** [flow ~use ~def ~out ~into] sets [into] to [use ∪ (out − def)]
    and says whether [into] changed.  All four share one capacity. *)

val union_into : t -> into:t -> bool
(** [into := into ∪ s], saying whether [into] changed; both share one
    capacity. *)
