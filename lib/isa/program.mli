(** An assembled EPA-32 program: label-resolved code plus the initial
    data image and heap base, and the static facts about each
    instruction that the timing model and the profiler read, decoded
    once when the program is built. *)

type item =
  | Label of string
  | Insn of Insn.t
  | Comment of string

type t

exception Unknown_label of string

val assemble : ?entry:string -> layout:Layout.t -> item list -> t
(** Resolve labels and build the program.  [entry] defaults to
    ["_start"].  Raises {!Unknown_label} for unresolved control-transfer
    targets and [Invalid_argument] for duplicate labels. *)

val length : t -> int
(** Number of instructions. *)

val insn : t -> int -> Insn.t
(** Instruction at index [pc]. *)

val target : t -> int -> int
(** Resolved control-transfer target of the instruction at [pc], or -1
    if the instruction has no static target. *)

val entry : t -> int
(** Entry-point instruction index. *)

val symbol : t -> string -> int
(** Instruction index of a code label. *)

val data_image : t -> (int * string) list

val heap_base : t -> int

val map_insns : (int -> Insn.t -> Insn.t) -> t -> t
(** Rewrite instructions in place positions (a fresh program, with its
    tables rebuilt, is returned); [f] must preserve control-flow
    targets. *)

val static_loads : t -> (int * Insn.t) list
(** All static load instructions as [(pc, insn)] rows, in load-number
    order (code order). *)

val pp : t Fmt.t
(** Disassembly listing. *)

(** {2 Static tables}

    Built once by {!assemble} and {!map_insns}, so that nothing decodes
    an {!Insn.t} per retire: flat tables by pc, and a dense load index
    (load [k] is the [k]-th load in code order). *)

(** Issue class: the functional unit and, on the integer unit, which
    configured latency the result has. *)
type op =
  | Single_cycle  (** ALU ops but [mul]/[div]/[rem], [li], syscalls, [nop], [halt] *)
  | Multiply
  | Divide  (** [div], [rem] *)
  | Load
  | Store
  | Predicted  (** resolved through the BTB: conditional branches, [jr], [jalr] *)
  | Direct  (** [j], [jal] *)

val op : t -> int -> op

val sources : t -> int -> int
(** {!Insn.uses} in order, six bits each from the low end, ending at 0
    (the zero register is never a source). *)

val dest : t -> int -> int
(** The {!Insn.defs} register, else -1. *)

val width : t -> int -> int
(** Access bytes of a load or store, else 0. *)

val base : t -> int -> int
(** Base register of a register+offset load or store, else -1. *)

val load_index : t -> int -> int
(** Load number of the load at [pc], else -1. *)

val load_count : t -> int
val load_pc : t -> int -> int
val load_spec : t -> int -> Insn.load_spec
(** The number of loads; the pc (ascending in [k]) and specifier of
    load [k]. *)
