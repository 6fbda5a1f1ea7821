(** Stall-cause taxonomy for the in-order pipeline.

    Every non-issuing cycle of a timing simulation is charged to
    exactly one cause, so that [busy + Σ stalls = cycles] holds by
    construction (the report acceptance invariant).  Attribution
    charges the *binding* constraint: the latest of the limits that
    kept the next instruction from issuing. *)

type t =
  | Load_use  (** waiting on a load's value (the Figure 1a stall) *)
  | Dcache_miss  (** waiting on a load whose access missed the D-cache *)
  | Icache_miss
      (** front end refilling after an I-cache miss; pipeline-fill
          cycles at startup are folded in here, since the first fetch
          is always a cold miss *)
  | Btb_mispredict  (** front-end refill after a branch mispredict *)
  | Port_contention
      (** a ready memory operation waiting for a free data-cache port
          (including ports held by wasted speculative accesses) *)
  | Raw_dependence
      (** waiting on a non-load producer (ALU / multiply / divide) *)

val all : t list
(** Every cause, in canonical report order. *)

val cardinal : int

val index : t -> int
(** Dense index into [0, cardinal). *)

val name : t -> string
(** Kebab-case metric name, e.g. ["load-use"]. *)
