(** Little-endian byte-addressable memory of [size] bytes, backed by
    4 KiB pages on demand: unwritten pages read as zero from one shared
    page, and a page gets its own bytes on its first write.  Bounds and
    {!Fault} addresses are exactly those of a flat [size]-byte array. *)

type t

exception Fault of int
(** Raised on out-of-range accesses, carrying the faulting address. *)

val default_size : int
(** 16 MiB. *)

val create : ?size:int -> unit -> t
(** Costs one page table; no page is materialized until written. *)

val reset : t -> unit
(** Zero every byte, keeping the pages written so far: later writes to
    them allocate nothing. *)

val read_byte_u : t -> int -> int
val read_byte_s : t -> int -> int
val read_half_u : t -> int -> int
val read_half_s : t -> int -> int

val read_word : t -> int -> int
(** Normalized to the signed 32-bit range. *)

val write_byte : t -> int -> int -> unit
val write_half : t -> int -> int -> unit
val write_word : t -> int -> int -> unit

val load_image : t -> (int * string) list -> unit
(** Blit an initial data image (address, bytes) into memory. *)
