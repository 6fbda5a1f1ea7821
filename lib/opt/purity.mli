(** Interprocedural function summaries — the "more aggressive compiler
    analysis" the paper's conclusion calls for.  Facts are computed by
    a monotone fixpoint over the call graph; unknown callees are
    conservative, builtins are known-harmless. *)

type summary =
  { writes_memory : bool
    (** the function (transitively) executes a store *)
  ; returns_loaded : bool
    (** the return value may derive from a load *) }

type t

val analyze : Elag_ir.Ir.program -> t

val find : t -> string -> summary
(** Summary for a callee by name (conservative if unknown). *)
