(** Static data layout: assigns byte addresses to global data labels and
    produces the initial memory image loaded by the emulator. *)

type init =
  | Zeros of int         (** zero-filled region of [n] bytes *)
  | Words of int list    (** little-endian 32-bit words *)
  | Bytes of string      (** raw bytes *)

type t

val default_base : int
(** Start of the data segment (0x1000). *)

val heap_pointer_slot : int
(** Reserved word just below the data segment where the emulator
    publishes the heap base address (see {!Elag_sim.Emulator}). *)

val create : unit -> t
(** An empty layout starting at {!default_base}. *)

val add : t -> label:string -> align:int -> init:init -> int
(** Allocate a region for [label]; returns its byte address.
    Raises [Invalid_argument] on duplicate labels. *)

val address : t -> string -> int
(** Address previously assigned to [label]; raises on unknown labels. *)

val mem : t -> string -> bool

val heap_base : t -> int
(** First 16-byte-aligned byte after all static data. *)

val image : t -> (int * string) list
(** Initial memory image as [(address, bytes)] pairs, in layout order. *)
