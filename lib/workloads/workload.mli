(** A workload: a MiniC kernel with its expected output (self-check)
    and suite tag.  [source] already includes the runtime prelude. *)

type suite = Spec | Media

type t =
  { name : string
  ; suite : suite
  ; description : string
  ; source : string
  ; expected_output : string option }

val make : name:string -> suite:suite -> description:string -> string -> t
(** Build a workload from a MiniC body (the runtime prelude is
    prepended); {!Suite} attaches the expected output. *)

val suite_name : suite -> string
