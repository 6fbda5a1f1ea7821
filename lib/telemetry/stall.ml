(* Stall-cause taxonomy shared by the pipeline's attribution logic and
   the report emitters. *)

type t =
  | Load_use
  | Dcache_miss
  | Icache_miss
  | Btb_mispredict
  | Port_contention
  | Raw_dependence

let all =
  [ Load_use; Dcache_miss; Icache_miss; Btb_mispredict; Port_contention
  ; Raw_dependence ]

let cardinal = List.length all

let index = function
  | Load_use -> 0
  | Dcache_miss -> 1
  | Icache_miss -> 2
  | Btb_mispredict -> 3
  | Port_contention -> 4
  | Raw_dependence -> 5

let name = function
  | Load_use -> "load-use"
  | Dcache_miss -> "dcache-miss"
  | Icache_miss -> "icache-miss"
  | Btb_mispredict -> "btb-mispredict"
  | Port_contention -> "port-contention"
  | Raw_dependence -> "raw-dependence"
