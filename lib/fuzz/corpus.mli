(** Persistent minimal repros: [fuzz/corpus/<fingerprint>.epa] (shrunk
    human-readable listing) plus [<fingerprint>.json] (seed, generator
    params, mechanism, failure kind, planted-mutation name, divergence
    report).  Replay regenerates the program from its seed — the
    listing is documentation, the seed is the ground truth.

    Replay doubles as a regression suite: a planted-mutation entry
    must still diverge (pinning the campaign's detection power); a
    real-bug entry must come back green once the bug is fixed. *)

type entry =
  { fingerprint : string
  ; seed : int
  ; source : string  (** ["epa"] or ["minic"] *)
  ; mechanism : string
  ; kind : string
  ; detail : string
  ; mutation : string option
  ; gen_params : Elag_telemetry.Json.t
  ; insns : int  (** instruction count of the shrunk repro *)
  ; listing : string
  ; report : Elag_telemetry.Json.t }

val fingerprint : listing:string -> mechanism:string -> detail:string -> string
(** Content hash of the repro identity — two seeds shrinking to the
    same minimal program dedupe to one corpus file. *)

val save : dir:string -> entry -> string
(** Write both files (creating [dir] as needed); returns the metadata
    path. *)

val load_file : string -> (entry, string) result
(** Load from a [.json] path; the sibling [.epa] listing is attached
    when present. *)

val locate : unit -> string option
(** Walk up from the cwd looking for [fuzz/corpus] — dune runs tests
    from [_build/default/test]. *)

val replay : entry -> (string, string) result
(** Regenerate from seed, re-run under the entry's mechanism (and
    mutation, if any) and check the expectation described above.
    [Ok] explains what was confirmed; [Error] is a failure line. *)

val replay_dir : string -> (string * (string, string) result) list
(** {!replay} every entry under a directory. *)
