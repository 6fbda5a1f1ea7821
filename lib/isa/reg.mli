(** Architectural registers of the EPA-32 machine.

    64 integer registers, [r0] hard-wired to zero.  The named registers
    below encode the calling convention shared by the code generator and
    the emulator. *)

type t = int

val count : int
(** Number of architectural integer registers (64). *)

val zero : t
(** Hard-wired zero register. *)

val ra : t
(** Return-address register, written by [jal]. *)

val sp : t
(** Stack pointer. *)

val rv : t
(** Return-value register. *)

val arg_first : t
val arg_last : t
(** Argument registers [arg_first .. arg_last] (8 register arguments). *)

val tmp_first : t
val tmp_last : t
(** Caller-saved allocatable range. *)

val saved_first : t
val saved_last : t
(** Callee-saved allocatable range. *)

val scratch0 : t
val scratch1 : t
val scratch2 : t
(** Reserved code-generator scratch registers; never allocated. *)

val is_valid : t -> bool

val name : t -> string
(** Human-readable name; raises [Invalid_argument] on an invalid index. *)

val pp : t Fmt.t
