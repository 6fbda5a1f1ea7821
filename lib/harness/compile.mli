(** End-to-end compilation driver: MiniC source to an assembled EPA-32
    program, with selectable optimization level and load-classification
    mode. *)

type classification =
  | No_classification  (** all loads ld_n: hardware-only configurations *)
  | Heuristics         (** the paper's Section 4 compiler heuristics *)

type options =
  { opt_level : Elag_opt.Driver.level
  ; classification : classification
  ; inline_threshold : int
  ; unroll_factor : int  (** loop unrolling at O2; below 2 disables it *) }

val default_options : options
(** O2, heuristics, default inline threshold and unroll factor. *)

exception Error of string
(** Parse or type errors, with position formatted into the message. *)

val to_ir : ?options:options -> string -> Elag_ir.Ir.program
(** Front end + optimizer + classifier, stopping at the IR. *)

val compile : ?options:options -> string -> Elag_isa.Program.t

val listing_options : (string * options) list
(** The ten named option sets that compiled listings are pinned under:
    ["O0"], ["O1"] and ["O2-u0"/"-u4"/"-u8"] (unroll factor), each with
    the heuristics and, suffixed ["-nc"], without classification. *)

val listing_digest : options:options -> string -> string
(** The MD5, in hex, of the compiled program's listing
    ({!Elag_isa.Program.pp}). *)
