(** Induction-variable strength reduction: [d = iv * k] (or
    [iv << k]) inside a loop is replaced by an accumulator bumped by
    [step * k] right after the induction variable's single update. *)

type basic_iv =
  { iv : Elag_ir.Ir.vreg
  ; step : int
  ; update_block : int  (** index in the loop's snapshot *)
  ; update_inst : Elag_ir.Ir.inst }

val find_basic_ivs : Elag_ir.Dominators.t -> Elag_ir.Loops.loop -> basic_iv list
(** Registers whose only in-loop definition is a self-increment by a
    constant, with the update dominating every latch.  The dominators
    are those of the loop's snapshot.  Shared with {!Addr_promote}. *)

val insert_after_update : Elag_ir.Loops.loop -> basic_iv -> Elag_ir.Ir.inst -> unit
(** Insert an instruction right after the induction variable's update,
    in the loop's snapshot.  Raises [Invalid_argument] if the update is
    no longer in its block.  Shared with {!Addr_promote}. *)

val run : Elag_ir.Ir.func -> bool
