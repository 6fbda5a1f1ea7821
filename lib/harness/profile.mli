(** Address profiling (paper §4.3).

    An emulation pass drives the unbounded per-load stride predictor over
    every dynamic load, yielding per-load prediction rates and
    execution counts.  Reclassification upgrades [ld_n] loads whose
    rate exceeds the threshold (60% in the paper) to [ld_p] — and
    changes nothing else. *)

type t =
  { program : Elag_isa.Program.t  (** the profiled program *)
  ; rates : Elag_predict.Ideal.t  (** on its load numbers *) }

val collect : ?max_insns:int -> Elag_isa.Program.t -> t

val total_loads : t -> int
(** Dynamic loads executed. *)

val rate : t -> int -> float option
(** Stride-prediction rate of the load at this pc. *)

val executions : t -> int -> int
(** Dynamic executions of the load at this pc; 0 if never executed. *)

val default_threshold : float
(** 0.60, the paper's value. *)

val reclassify : ?threshold:float -> t -> Elag_isa.Program.t -> Elag_isa.Program.t
(** Returns a fresh program with qualifying [ld_n] loads turned into
    [ld_p]; the input program is unchanged. *)
