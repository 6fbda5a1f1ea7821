(** Struct layout: field offsets, sizes and alignments, computed with
    natural alignment (char 1, int/pointer 4). *)

type field = { field_ty : Ast.ty; offset : int }

type t

exception Unknown_struct of string
exception Unknown_field of string * string

val create : unit -> t

val define : t -> Ast.struct_def -> unit
(** Structs must be defined before use inside other structs.  Raises
    [Invalid_argument] on duplicates. *)

val size_of : t -> Ast.ty -> int
val align_of : t -> Ast.ty -> int

val field : t -> struct_name:string -> field_name:string -> field

val mem : t -> string -> bool
