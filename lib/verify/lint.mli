(** Static EPA-32 program verifier, run before any simulation.

    The emulator traps wild jumps and memory faults dynamically; the
    lint rejects a malformed program *before* it costs a multi-minute
    simulation, and catches classes the dynamic checks cannot — e.g. an
    [ld_e] whose addressing mode cannot legally bind R_addr, which
    would silently simulate with meaningless timing.

    Checks:
    - the entry point and every static control-transfer target lie
      inside the code segment;
    - every register read or written (including address-formation
      registers) is architecturally valid;
    - [ld_e] binding rules: early-calculation loads must use
      register+offset addressing with a non-zero base, the only form
      the R_addr full adder accepts (paper §3.2.1);
    - absolute-addressed memory operations fit inside the memory
      image, and the static data image and heap base respect the
      emulator's memory size. *)

type issue =
  { pc : int option  (** code position, or [None] for data/layout issues *)
  ; rule : string  (** stable machine-readable rule id *)
  ; detail : string }

type report =
  { checked : int  (** instructions examined *)
  ; issues : issue list }

val ok : report -> bool

exception Rejected of report

val check : Elag_isa.Program.t -> report
(** Bounds are checked against {!Elag_sim.Memory.default_size}. *)

val enforce : Elag_isa.Program.t -> unit
(** Raises {!Rejected} when {!check} finds any issue. *)

val pp_issue : issue Fmt.t
val pp : report Fmt.t
val to_json : report -> Elag_telemetry.Json.t
