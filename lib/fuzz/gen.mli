(** Seeded random program generation for differential fuzzing.

    Two sources: {!program} builds random EPA-32 programs by typed
    construction — lint-clean and terminating by design (register
    classes with statically known pointer values, bounded arena
    accesses, forward-only branches plus counted-loop templates, all
    three load specifiers and all three addressing modes under tunable
    mix weights) — and {!minic} emits random MiniC sources from a
    bounded statement grammar, so the whole front-end + optimizer
    pipeline sits inside the fuzzing loop.

    Everything is a pure function of [(seed, params)]: a corpus entry
    stores those two values and regenerates its program exactly. *)

type weights =
  { alu : int
  ; ld_n : int
  ; ld_p : int
  ; ld_e : int
  ; store : int
  ; branch : int
  ; loop : int
  ; print : int }

type params =
  { segments : int  (** top-level generation steps *)
  ; segment_ops : int  (** max ops per straight-line burst *)
  ; arena_words : int  (** data arena size (32-bit words) *)
  ; max_trip : int  (** max loop trip count *)
  ; weights : weights }

val default_params : params

type t =
  { seed : int
  ; params : params
  ; arena : int list  (** initial arena contents (seeded) *)
  ; items : Elag_isa.Program.item list
  ; program : Elag_isa.Program.t
  ; budget : int
    (** upper bound on retired instructions, with margin — pass as
        [max_insns] so a generator bug reads as [Runaway], never as a
        hang *) }

val program : ?params:params -> int -> t
(** Generate from a seed.  The result is self-checked with
    {!Elag_verify.Lint.enforce} — a construction bug fails loudly here
    instead of leaking malformed programs into a campaign where they
    would masquerade as simulator findings.  Raises [Invalid_argument]
    on non-positive [segments]/[arena_words]. *)

val reassemble : t -> Elag_isa.Program.item list -> Elag_isa.Program.t
(** Assemble a modified item list (shrinking candidates) against the
    same arena layout; raises like {!Elag_isa.Program.assemble}. *)

val listing : t -> string
(** Disassembly of the generated program. *)

val minic : int -> string
(** Seeded random MiniC source (standalone — needs no runtime
    prelude); indices are masked before bounds-modulo and loop bounds
    are literals, so compiled programs are in-bounds and terminating
    for any data values. *)

val minic_budget : int
(** Retired-instruction budget for compiled {!minic} programs. *)

(** {2 Planted mutations}

    Guarded test hooks proving the campaign catches real bugs: each
    named mutation flips one opcode in the {e reference} program
    (modelling an emulator-semantics bug) and the oracle must flag the
    first retire of the mutated instruction.  Names are recorded in
    corpus metadata so a replay can re-apply the same mutation. *)

val mutation_names : string list

val apply_mutation : string -> Elag_isa.Program.t -> Elag_isa.Program.t
(** Apply a named mutation to the first matching instruction (identity
    when no instruction matches); raises [Invalid_argument] on unknown
    names. *)

(** {2 Campaign iterations} — shared with corpus replay *)

val iteration :
  params:params -> source:string -> int -> t option * Elag_isa.Program.t * int
(** The program an iteration of source ["epa"] ({!program}, also
    returned) or ["minic"] ({!minic} compiled; [params] unused) checks,
    and its retire budget.  Raises {!Elag_harness.Compile.Error} or,
    on another source, [Invalid_argument]. *)

val verdict :
  ?mutation:string -> budget:int -> Elag_sim.Config.t -> Elag_isa.Program.t ->
  Elag_verify.Oracle.report * string option
(** The oracle's report against the reference the mutation plants (the
    program itself when none), and its failure signature. *)

(** {2 Params (de)serialization} — corpus metadata *)

val params_to_json : params -> Elag_telemetry.Json.t
val params_of_json : Elag_telemetry.Json.t -> (params, string) result
