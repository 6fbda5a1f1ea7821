(** Unbounded per-load stride predictor: the prediction-rate
    methodology of the paper's Table 2 ("individual operation
    prediction ... not affected by the limitations of a prediction
    cache").

    Every static load gets its own Figure 3 state machine; a load's
    prediction rate is the fraction of its dynamic executions whose
    address was predicted correctly.  Loads are named by their number
    in the program's dense load index ({!Elag_isa.Program.load_index}). *)

type t

val create : int -> t
(** A predictor for this many loads, numbered from 0. *)

val observe : t -> load:int -> ca:int -> unit
(** Record one dynamic execution of load [load] with computed address
    [ca]. *)

val rate : t -> int -> float option
(** Prediction rate of the load; [None] if never executed. *)

val executions : t -> int -> int

val aggregate_rate : t -> int list -> float option
(** Dynamically-weighted prediction rate over a set of loads:
    total correct / total executions. *)
