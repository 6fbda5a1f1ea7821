(** Differential oracle: the timing pipeline and a reference
    architectural emulator run in lockstep over the retired-instruction
    stream, and every retire event must agree instruction by
    instruction: the pc, the instruction at that pc in each program
    (the subject's and the reference's), the effective address, the
    branch outcome and the next pc.

    The simulator is emulation-driven, so the pipeline cannot *compute*
    a different architectural result; what the oracle pins down is the
    stream contract between the two halves: the observer really is
    called once per retired instruction, in order, with the
    architectural values.  Any refactor that breaks the contract (a
    skipped retire, a stale effective address, a misreported branch)
    surfaces as a first-divergence report rather than as silently wrong
    statistics. *)

type event =
  { ev_index : int  (** retire index (0-based) *)
  ; ev_pc : int
  ; ev_insn : Elag_isa.Insn.t
  ; ev_eff : int
  ; ev_taken : bool
  ; ev_next_pc : int }

type divergence =
  { div_index : int  (** retire index of the first disagreement *)
  ; div_subject : event
  ; div_reference : event option
    (** [None] when the reference emulator had already halted. *)
  ; div_recent : event list
    (** The last agreeing events before the divergence (at most 8),
        oldest first — the "how did we get here" context. *) }

type report =
  { compared : int  (** events that agreed *)
  ; divergence : divergence option
  ; subject_output : string
  ; reference_output : string
  ; outputs_match : bool
  ; reference_trailing : bool
    (** The reference still had instructions to retire after the
        subject halted. *)
  ; subject_cycles : int  (** timing result of the subject run *) }

val ok : report -> bool
(** No divergence, matching outputs, no trailing reference stream. *)

type t

val create : Elag_isa.Program.t -> t
(** Lockstep checker against a fresh reference emulator for the given
    program. *)

val observer : t -> Elag_sim.Emulator.observer
(** Feed one subject retire event: steps the reference emulator once
    and compares, allocating nothing while the streams agree.  After
    the first divergence the reference is left untouched and further
    events are ignored. *)

val divergence : t -> divergence option

val run :
  ?max_insns:int ->
  ?reference:Elag_isa.Program.t ->
  Elag_sim.Config.t ->
  Elag_isa.Program.t ->
  report
(** Run the full timed simulation of the program under the
    configuration with the oracle attached, comparing against
    [reference] (default: the program itself — the self-check used by
    the engine's verification suite; tests pass a deliberately
    different reference to prove divergences are caught).  Raises
    {!Elag_sim.Emulator.Runaway} once [max_insns] instructions have
    retired. *)

val signature : report -> string option
(** [None] when the report is {!ok}; otherwise a stable label of the
    failure class ("divergence:<subject-kind>-vs-<reference-kind>",
    "output-mismatch" or "reference-trailing") that ignores pcs,
    indices and operand values.  The fuzz shrinker minimizes a repro
    against its signature, so deletion steps cannot silently swap the
    original failure for a different one. *)

val pp : report Fmt.t
(** One line when green; the divergence site and recent context
    otherwise. *)

val to_json : report -> Elag_telemetry.Json.t
