(** Deterministic predictor fault injection.

    The paper's central safety claim is that early-address-generation
    state is a *timing hint only*: address-table entries, BRIC
    residency, the R_addr binding and BTB contents influence when a
    load's access is dispatched, never what the program computes.  A
    fault plan corrupts exactly that state mid-run, on a fixed
    retire-count schedule with a fixed seed, and the harness asserts
    the run is architecturally byte-identical to the fault-free run —
    same program output, same retired-instruction stream — while the
    cycle count may only stay equal or increase.

    The BRIC targets ([Bric_flush], [Bric_delay], [Raddr_unbind]) land
    on whichever base-register cache the mechanism has: the N-entry
    BRIC under [calc-N], R_addr (a one-entry BRIC) under [dual-*].

    Plans are deterministic end to end (seeded {!Xorshift}, retire-
    count triggers, no wall-clock anywhere), so a plan that passes once
    pins the invariant forever and the suite can run in CI. *)

type target =
  | Table_scramble of { slot : int }
    (** Detach an address-table entry from its load by overwriting the
        tag with a bogus pc. *)
  | Table_pa of { slot : int }
    (** Overwrite a live entry's predicted address — every subsequent
        prediction from it dispatches to the wrong line until the
        entry self-corrects at its next update. *)
  | Table_state of { slot : int }
    (** Demote a live entry to Learning with stride confidence
        cleared. *)
  | Bric_flush  (** Evict every BRIC-resident base register. *)
  | Bric_delay of { cycles : int }
    (** Push residency validity [cycles] into the future. *)
  | Raddr_unbind
    (** Drop the R_addr binding: the same flush as [Bric_flush], named
        for the one-entry cache [dual-*] has. *)
  | Btb_target of { slot : int }
    (** Redirect a valid BTB entry's target to a bogus (negative)
        address — the provably adversarial fault: a correct
        taken-prediction becomes a misfetch, never the reverse. *)
  | Btb_scramble of { slot : int }
    (** Detach a valid BTB entry via its tag. *)

type plan =
  { name : string
  ; seed : int
  ; first : int  (** retire count of the first injection *)
  ; period : int option
    (** re-inject every [period] retires; [None] = once *)
  ; target : target }

val pp_target : target Fmt.t

val target_of_string : string -> target option
(** Parse a CLI target name — the {!pp_target} form without brackets,
    with an optional [:N] parameter ("table-scramble:17",
    "bric-delay:8"); parameters default to slot 0 / 8 delay cycles.
    [None] for an unknown name, a parameter that is not a non-negative
    integer, or a parameter on [bric-flush] / [raddr-unbind], which
    take none. *)

val preset_of_target : target -> string
(** The mechanism preset a plan with this target runs under: one that
    instantiates the structure the target corrupts. *)

val target_names : string list
(** Every parseable target name, for usage text. *)

(** {2 Running plans} *)

type baseline =
  { base_output : string
  ; base_hash : int
  ; base_retired : int
  ; base_cycles : int }

val baseline :
  ?max_insns:int -> Elag_sim.Config.t -> Elag_isa.Program.t -> baseline
(** Fault-free run; shared across every plan on the same
    (config, program) pair.  Raises {!Elag_sim.Emulator.Runaway} once
    [max_insns] instructions have retired. *)

type outcome =
  { plan : plan
  ; injections : int  (** triggers that found live state to corrupt *)
  ; faulted_cycles : int
  ; clean_cycles : int
  ; output_ok : bool  (** program output byte-identical *)
  ; stream_ok : bool  (** retire stream identical (hash + count) *)
  ; cycles_ok : bool  (** [faulted_cycles >= clean_cycles] *) }

val outcome_ok : outcome -> bool

val run_plan :
  ?max_insns:int ->
  baseline:baseline ->
  Elag_sim.Config.t ->
  Elag_isa.Program.t ->
  plan ->
  outcome
(** Re-run the program with the plan's corruptions applied at their
    retire triggers and check the three invariants against the
    baseline. *)

val pp_outcome : outcome Fmt.t

val outcome_to_json : outcome -> Elag_telemetry.Json.t
