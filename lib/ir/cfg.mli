(** Control-flow graph of an {!Ir.func} over dense block indices.

    Block [i] is the [i]-th block of [f.blocks], so the entry block is
    0.  Successors, predecessors, reverse postorder and reachability
    are arrays over these indices; labels are resolved once, through
    one label→index table.

    A [Cfg.t] is a snapshot: passes that add or remove blocks must
    rebuild it with {!of_func}. *)

type t

val of_func : Ir.func -> t
(** Raises [Invalid_argument], naming the function and the label, when
    a terminator names a label that no block has or two blocks share a
    label. *)

val func : t -> Ir.func

val length : t -> int
(** Number of blocks, reachable or not. *)

val block : t -> int -> Ir.block
val label : t -> int -> string

val index : t -> string -> int
(** Raises [Not_found] for unknown labels. *)

val index_opt : t -> string -> int option

val succs : t -> int -> int list
(** In branch order (taken first); a [Br] with [ifso = ifnot] lists
    its target twice. *)

val preds : t -> int -> int list
(** One entry per edge, so a [Br] with [ifso = ifnot] appears twice;
    ordered by source block, latest first. *)

val rpo : t -> int array
(** The reachable blocks in reverse postorder from the entry: a
    depth-first search visiting successors in branch order.  Do not
    mutate. *)

val rpo_number : t -> int -> int
(** Position in {!rpo}, or [-1] for an unreachable block. *)

val reachable : t -> int -> bool
(** Is the block reachable from the entry? *)

val unreachable_blocks : t -> Ir.block list
(** In block order. *)
