(** Minimal JSON tree, serializer and parser for telemetry artifacts.

    Construction and deterministic printing (objects keep insertion
    order, floats print with enough precision to round-trip, strings
    are escaped per RFC 8259), plus a small recursive-descent parser:
    fuzz-corpus entries are JSON metadata files that must be read back
    to replay a repro from its seed. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** [pretty] (default false) indents with two spaces. *)

val output : ?pretty:bool -> out_channel -> t -> unit

val parse : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a one-line message
    with the byte offset.  Round-trips everything {!to_string} emits
    (integers stay [Int]; numbers with a fraction or exponent, or too
    wide for OCaml's [int], become [Float]). *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_int : t -> int option

val to_str : t -> string option
