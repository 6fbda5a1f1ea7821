(** The special addressing register R_addr (paper §3.2.1): a one-entry
    cache bound to a single general-purpose register by each [ld_e]
    (and by every calc-path load under hardware selection).

    Binding to a different register makes the cached value unusable
    until the next cycle — the paper's "binding has just been switched
    by the current load" hazard; re-binding to the same register is
    free. *)

type t

val create : unit -> t

val peek : t -> cycle:int -> int -> bool
(** Pure hit test: bound to this register with a usable value. *)

val bind : t -> cycle:int -> int -> unit
(** (Re)bind to a register; switching invalidates until [cycle + 1]. *)

(** {2 Fault-injection hooks} *)

val unbind : t -> unit
(** Drop the current binding (models losing R_addr state); the next
    [ld_e] must rebind and pays the switch penalty. *)

val bound : t -> int option
(** The currently bound register, if any. *)
