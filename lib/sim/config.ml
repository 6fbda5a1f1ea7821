(* Machine configuration for the timing simulator.  Defaults follow the
   paper's evaluation machine: 6-issue in-order, 4 integer ALUs, 2 data
   cache ports, 1 branch unit, 64 KB direct-mapped I/D caches with 64 B
   lines and a 12-cycle miss penalty, 1K-entry BTB with 2-bit counters,
   PA-7100-like latencies (1-cycle integer ops, 2-cycle loads). *)

type selection = Hardware_selected | Compiler_directed

type mechanism =
  | No_early
    (** Baseline: no early address generation. *)
  | Table_only of { entries : int; compiler_filtered : bool }
    (** Figure 5a: address-prediction table only.  When
        [compiler_filtered], only loads the compiler marked [ld_p] may
        allocate entries; otherwise every load is treated as
        predictable. *)
  | Calc_only of { bric_entries : int }
    (** Figure 5b: early address calculation only, with an N-entry
        base-register cache; every register+offset load participates. *)
  | Dual of { table_entries : int; selection : selection }
    (** Figure 5c: both mechanisms.  [Compiler_directed] follows the
        load opcode specifiers; [Hardware_selected] uses the
        Eickemeyer–Vassiliadis run-time rule (base register interlocked
        at decode => prediction table, otherwise early calculation). *)

type t =
  { issue_width : int
  ; int_alus : int
  ; mem_ports : int
  ; branch_units : int
  ; load_latency : int        (* cycles: address generation + cache *)
  ; mul_latency : int
  ; div_latency : int
  ; miss_penalty : int
  ; icache_bytes : int
  ; dcache_bytes : int
  ; line_bytes : int
  ; cache_ways : int          (* 1 = direct-mapped, the paper's config *)
  ; btb_entries : int
  ; mispredict_penalty : int  (* front-end refill after EXE resolve *)
  ; mechanism : mechanism }

let default =
  { issue_width = 6
  ; int_alus = 4
  ; mem_ports = 2
  ; branch_units = 1
  ; load_latency = 2
  ; mul_latency = 3
  ; div_latency = 8
  ; miss_penalty = 12
  ; icache_bytes = 64 * 1024
  ; dcache_bytes = 64 * 1024
  ; line_bytes = 64
  ; cache_ways = 1
  ; btb_entries = 1024
  ; mispredict_penalty = 3
  ; mechanism = No_early }

(* Per-field functional updates for the fields callers vary. *)
let with_issue_width issue_width t = { t with issue_width }
let with_miss_penalty miss_penalty t = { t with miss_penalty }
let with_cache_ways cache_ways t = { t with cache_ways }
let with_mechanism mechanism t = { t with mechanism }

let mechanism_name = function
  | No_early -> "baseline"
  | Table_only { entries; compiler_filtered } ->
    Printf.sprintf "table-%d%s" entries (if compiler_filtered then "-cc" else "-hw")
  | Calc_only { bric_entries } -> Printf.sprintf "calc-%d" bric_entries
  | Dual { table_entries; selection } ->
    Printf.sprintf "dual-%d-%s" table_entries
      (match selection with Hardware_selected -> "hw" | Compiler_directed -> "cc")

(* Single source of truth for mechanism naming: [to_string] produces
   canonical names, [of_string] parses them back (plus the short CLI
   aliases "table-N", "dual-hw" and "dual-cc"), and [all] is the
   paper's evaluation grid (Figures 5a-c). *)
module Mechanism = struct
  type t = mechanism

  let to_string = mechanism_name

  let all =
    No_early
    :: List.concat_map
         (fun entries ->
           [ Table_only { entries; compiler_filtered = false }
           ; Table_only { entries; compiler_filtered = true } ])
         [ 64; 128; 256 ]
    @ List.map (fun n -> Calc_only { bric_entries = n }) [ 4; 8; 16 ]
    @ [ Dual { table_entries = 256; selection = Hardware_selected }
      ; Dual { table_entries = 256; selection = Compiler_directed } ]

  let of_string s =
    let int p = match int_of_string_opt p with Some n when n > 0 -> Some n | _ -> None in
    match String.split_on_char '-' s with
    | [ "baseline" ] -> Some No_early
    | [ "dual"; "hw" ] -> Some (Dual { table_entries = 256; selection = Hardware_selected })
    | [ "dual"; "cc" ] -> Some (Dual { table_entries = 256; selection = Compiler_directed })
    | [ "table"; n ] | [ "table"; n; "hw" ] ->
      Option.map (fun entries -> Table_only { entries; compiler_filtered = false }) (int n)
    | [ "table"; n; "cc" ] ->
      Option.map (fun entries -> Table_only { entries; compiler_filtered = true }) (int n)
    | [ "calc"; n ] -> Option.map (fun bric_entries -> Calc_only { bric_entries }) (int n)
    | [ "dual"; n; "hw" ] ->
      Option.map
        (fun table_entries -> Dual { table_entries; selection = Hardware_selected })
        (int n)
    | [ "dual"; n; "cc" ] ->
      Option.map
        (fun table_entries -> Dual { table_entries; selection = Compiler_directed })
        (int n)
    | _ -> None

  let of_string_exn s =
    match of_string s with
    | Some m -> m
    | None ->
      invalid_arg
        (Printf.sprintf "unknown mechanism %S (known: %s; also table-N, calc-N, dual-N-hw, dual-N-cc)"
           s (String.concat " " (List.map to_string all)))
end

(* Provenance block embedded in every emitted report: the exact
   machine and mechanism a result was produced under. *)
let mechanism_to_json mech =
  let open Elag_telemetry.Json in
  let fields =
    match mech with
    | No_early -> []
    | Table_only { entries; compiler_filtered } ->
      [ ("table_entries", Int entries); ("compiler_filtered", Bool compiler_filtered) ]
    | Calc_only { bric_entries } -> [ ("bric_entries", Int bric_entries) ]
    | Dual { table_entries; selection } ->
      [ ("table_entries", Int table_entries)
      ; ( "selection"
        , String
            (match selection with
            | Hardware_selected -> "hardware"
            | Compiler_directed -> "compiler") ) ]
  in
  Obj (("name", String (mechanism_name mech)) :: fields)

let to_json t =
  let open Elag_telemetry.Json in
  Obj
    [ ("issue_width", Int t.issue_width)
    ; ("int_alus", Int t.int_alus)
    ; ("mem_ports", Int t.mem_ports)
    ; ("branch_units", Int t.branch_units)
    ; ("load_latency", Int t.load_latency)
    ; ("mul_latency", Int t.mul_latency)
    ; ("div_latency", Int t.div_latency)
    ; ("miss_penalty", Int t.miss_penalty)
    ; ("icache_bytes", Int t.icache_bytes)
    ; ("dcache_bytes", Int t.dcache_bytes)
    ; ("line_bytes", Int t.line_bytes)
    ; ("cache_ways", Int t.cache_ways)
    ; ("btb_entries", Int t.btb_entries)
    ; ("mispredict_penalty", Int t.mispredict_penalty)
    ; ("mechanism", mechanism_to_json t.mechanism) ]
