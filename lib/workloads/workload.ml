(* A workload: a MiniC kernel with its expected output (self-check)
   and suite tag.  [source] already includes the runtime prelude. *)

type suite = Spec | Media

type t =
  { name : string
  ; suite : suite
  ; description : string
  ; source : string
  ; expected_output : string option }

let make ~name ~suite ~description body =
  { name
  ; suite
  ; description
  ; source = Runtime.with_prelude body
  ; expected_output = None }

let suite_name = function Spec -> "SPEC-like" | Media -> "MediaBench-like"
