(** Base-register cache (BRIC) for the hardware-only early-calculation
    baseline, after Austin & Sohi: an N-entry LRU cache of
    base-register identities whose values are kept coherent with the
    register file by multicast writes.  Value staleness is checked by
    the pipeline through its scoreboard; the structure tracks residency
    and the cycle an entry's value becomes usable. *)

type t

val create : int -> t
(** Capacity in entries; raises [Invalid_argument] if non-positive. *)

val reset : t -> unit
(** Drop every resident entry and zero the counters: [t] is then as
    {!create} left it. *)

val capacity : t -> int

val peek : t -> cycle:int -> int -> bool
(** Pure hit test: resident with a usable value. *)

val probe : t -> cycle:int -> int -> bool
(** Counted probe; allocates on a miss (the new entry's value is
    usable from the next cycle) and refreshes LRU order on a hit. *)

type stats = { br_probes : int; br_hits : int; br_evictions : int }

val stats : t -> stats
(** Probe/hit/eviction totals, mirroring {!Elag_predict.Addr_table.stats}
    so the pipeline can surface every predictor structure uniformly. *)

(** {2 Fault-injection hooks} *)

val flush : t -> unit
(** Drop every resident entry (models losing the whole cache). *)

val delay : t -> until:int -> unit
(** Push every resident entry's usable-from cycle to at least [until]
    (models a coherence glitch: values present but not yet trusted). *)

val resident_count : t -> int

