(** Natural-loop detection from back edges.  Loops are reported with
    their nesting depth and in inner-first order — the order the
    paper's cyclic classification heuristic processes them in
    (Section 4.1).

    A loop is a set of block indices of the {!Cfg.t} it was found in
    (its [cfg]).  Passes that change the CFG carry a loop over to a
    rebuilt snapshot with {!rebase}, which keeps its blocks, found
    again by label. *)

type loop = private
  { cfg : Cfg.t             (** the snapshot the indices refer to *)
  ; header : int
  ; body : int array        (** header included, in label order *)
  ; members : Bitset.t      (** [body] as a set; see {!mem} *)
  ; depth : int             (** 1 = outermost *)
  ; back_edges : int list   (** latch blocks *) }
(** Passes iterate [body] in label order ([String.compare]): it fixes
    the order of their hoists and rewrites, and so the code. *)

type t = loop list
(** Deepest (innermost) loops first; loops of equal depth in descending
    order of header label. *)

val compute : Cfg.t -> Dominators.t -> t

val innermost_containing : t -> int -> loop option
(** The innermost loop whose body contains the given block. *)

val mem : loop -> int -> bool

val rebase : Cfg.t -> loop -> loop option
(** The same loop, its blocks found by label in a rebuilt snapshot of
    the same function; [None] when one of them is gone or unreachable
    there.  The body is not recomputed: blocks added since (such as a
    preheader) stay outside it. *)
