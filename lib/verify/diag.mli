(** One-line diagnostics for the failure modes every binary shares.

    A wild jump, a runaway loop, a memory fault or a lint rejection
    should end a CLI run with a single structured line on stderr and
    exit code 2 — not an uncaught-exception backtrace. *)

val describe : exn -> string option
(** [Some line] for {!Elag_sim.Emulator.Runaway},
    {!Elag_sim.Emulator.Bad_jump}, {!Elag_sim.Memory.Fault} and
    {!Lint.Rejected}; [None] for anything else.  The line never
    contains a newline. *)

val guard : ?fail:(string -> unit) -> string -> (unit -> unit) -> unit
(** [guard prog f] runs [f ()]; on a described exception prints
    ["prog: <line>"] to stderr and exits with status 2.  Other
    exceptions propagate unchanged.  [fail] overrides the
    print-and-exit action (tests use this to assert the mapping
    in-process). *)
