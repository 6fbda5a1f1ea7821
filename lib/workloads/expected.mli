(** Pinned emulator outputs per workload, regenerated whenever a
    kernel changes; {!Suite} attaches them so every consumer
    self-checks. *)

val find : string -> string option
