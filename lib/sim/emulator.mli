(** Architectural emulator for EPA-32 programs.

    Executes the committed path and reports every retired instruction
    to an optional observer — the "emulation-driven" front of the
    timing simulator: the pipeline model consumes the retirement
    stream and needs no speculative-state recovery of its own.

    On creation the data image is loaded and the heap base is
    published in the reserved word at {!Elag_isa.Layout.heap_pointer_slot},
    where the workload runtime's allocator reads it. *)

exception Runaway of int
(** The instruction budget was exhausted (runaway loop); carries the
    retired-instruction count. *)

exception Bad_jump of { pc : int; retired : int }
(** Control transferred outside the code segment, carrying the bad
    [pc] and how many instructions had retired. *)

type t

type observer = Elag_isa.Program.t -> int -> int -> bool -> int -> unit
(** [observer program pc effective_address taken next_pc], called after
    each instruction retires; the instruction is
    [Elag_isa.Program.insn program pc], and the program's static tables
    describe it.  [effective_address] is meaningful for memory
    operations, [taken] for control transfers. *)

val create : Elag_isa.Program.t -> t
(** A fresh emulator over a {!Memory.default_size} memory holding the
    program's data image. *)

val reset : t -> unit
(** Put [t] back into the state {!create} left it in: the data image
    restored, registers zeroed, the pc at the entry point, no
    instruction retired and no output.  The memory keeps the pages the
    last run wrote, so running the same program again allocates no
    pages. *)

val step : ?observer:observer -> t -> bool
(** Retire exactly one instruction; [false] when already halted.  The
    lockstep primitive behind {!Elag_verify.Oracle}: a reference
    emulator is stepped once per subject retire and the two streams
    compared event by event. *)

val run : ?observer:observer -> ?max_insns:int -> t -> unit
(** Run to [Halt]/[exit]; raises {!Runaway} past [max_insns]
    (default 400M). *)

val run_program :
  ?observer:observer -> ?max_insns:int -> Elag_isa.Program.t -> t
(** Create and run in one step; returns the finished emulator. *)

val output : t -> string
(** Everything the program printed. *)

val retired : t -> int
(** Dynamic instruction count. *)

val halted : t -> bool
