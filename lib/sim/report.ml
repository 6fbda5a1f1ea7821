(* Reports over one pipeline run: JSON document, CSV and the text
   summary.  All three read the same accessors, so the shapes cannot
   drift apart. *)

module Json = Elag_telemetry.Json
module Stall = Elag_telemetry.Stall
module Histogram = Elag_telemetry.Histogram
module Insn = Elag_isa.Insn

let spec_name = function
  | Insn.Ld_n -> "ld_n"
  | Insn.Ld_p -> "ld_p"
  | Insn.Ld_e -> "ld_e"

let ipc (s : Pipeline.stats) =
  if s.Pipeline.cycles = 0 then 0.
  else float_of_int s.Pipeline.instructions /. float_of_int s.Pipeline.cycles

let totals_fields (s : Pipeline.stats) =
  [ ("cycles", Json.Int s.Pipeline.cycles)
  ; ("instructions", Json.Int s.Pipeline.instructions)
  ; ("ipc", Json.Float (ipc s))
  ; ("loads", Json.Int s.Pipeline.loads)
  ; ("stores", Json.Int s.Pipeline.stores)
  ; ("loads_n", Json.Int s.Pipeline.loads_n)
  ; ("loads_p", Json.Int s.Pipeline.loads_p)
  ; ("loads_e", Json.Int s.Pipeline.loads_e)
  ; ("table_attempts", Json.Int s.Pipeline.table_attempts)
  ; ("table_successes", Json.Int s.Pipeline.table_successes)
  ; ("calc_attempts", Json.Int s.Pipeline.calc_attempts)
  ; ("calc_successes", Json.Int s.Pipeline.calc_successes)
  ; ("wasted_spec", Json.Int s.Pipeline.wasted_spec)
  ; ("load_latency_sum", Json.Int s.Pipeline.load_latency_sum)
  ; ("icache_misses", Json.Int s.Pipeline.icache_misses)
  ; ("dcache_accesses", Json.Int s.Pipeline.dcache_accesses)
  ; ("dcache_misses", Json.Int s.Pipeline.dcache_misses)
  ; ("btb_mispredicts", Json.Int s.Pipeline.btb_mispredicts) ]

let stalls_json t =
  let breakdown = Pipeline.stall_breakdown t in
  Json.Obj
    (( "busy", Json.Int (Pipeline.busy_cycles t) )
     :: List.map (fun (cause, n) -> (Stall.name cause, Json.Int n)) breakdown
    @ [ ("total_stall", Json.Int (Pipeline.stall_total t)) ])

let site_json (site : Pipeline.load_site) =
  Json.Obj
    [ ("pc", Json.Int site.Pipeline.site_pc)
    ; ("spec", Json.String (spec_name site.Pipeline.site_spec))
    ; ("count", Json.Int (Histogram.count site.Pipeline.site_latency))
    ; ("table_attempts", Json.Int site.Pipeline.site_table_attempts)
    ; ("table_successes", Json.Int site.Pipeline.site_table_successes)
    ; ("calc_attempts", Json.Int site.Pipeline.site_calc_attempts)
    ; ("calc_successes", Json.Int site.Pipeline.site_calc_successes)
    ; ("wasted_spec", Json.Int site.Pipeline.site_wasted_spec)
    ; ("dcache_misses", Json.Int site.Pipeline.site_dcache_misses)
    ; ( "avg_latency"
      , Json.Float
          (float_of_int (Histogram.sum site.Pipeline.site_latency)
          /. float_of_int (max 1 (Histogram.count site.Pipeline.site_latency))) )
    ; ("latency", Histogram.to_json site.Pipeline.site_latency) ]

let predictors_json t =
  let table =
    match Pipeline.table_stats t with
    | None -> Json.Null
    | Some st ->
      Json.Obj
        [ ("probes", Json.Int st.Elag_predict.Addr_table.st_probes)
        ; ("hits", Json.Int st.Elag_predict.Addr_table.st_hits)
        ; ("correct", Json.Int st.Elag_predict.Addr_table.st_correct) ]
  in
  let bric =
    match Pipeline.bric_stats t with
    | None -> Json.Null
    | Some st ->
      Json.Obj
        [ ("probes", Json.Int st.Elag_predict.Bric.br_probes)
        ; ("hits", Json.Int st.Elag_predict.Bric.br_hits)
        ; ("evictions", Json.Int st.Elag_predict.Bric.br_evictions) ]
  in
  Json.Obj [ ("addr_table", table); ("bric", bric) ]

let to_json ?(meta = []) t =
  let s = Pipeline.stats t in
  Json.Obj
    ((if meta = [] then [] else [ ("meta", Json.Obj meta) ])
    @ [ ("schema", Json.String "elag.report.v1")
      ; ("config", Config.to_json (Pipeline.config t))
      ; ("totals", Json.Obj (totals_fields s))
      ; ("stalls", stalls_json t)
      ; ("load_latency", Histogram.to_json (Pipeline.load_latency_histogram t))
      ; ("predictors", predictors_json t)
      ; ("load_sites", Json.List (List.map site_json (Pipeline.load_sites t))) ])

(* The integer scalars of the JSON document, one [metric,value] row
   each, then the aggregate latency histogram's non-empty buckets. *)
let metric_rows buf t =
  let row name v = Buffer.add_string buf (Printf.sprintf "%s,%d\n" name v) in
  Buffer.add_string buf "metric,value\n";
  List.iter
    (fun (name, v) -> match v with Json.Int n -> row name n | _ -> ())
    (totals_fields (Pipeline.stats t));
  row "busy_cycles" (Pipeline.busy_cycles t);
  List.iter
    (fun (cause, n) -> row ("stall_" ^ Stall.name cause) n)
    (Pipeline.stall_breakdown t);
  row "stall_total" (Pipeline.stall_total t);
  List.iter
    (fun (bound, count) ->
      if count > 0 then
        row
          ("load_latency_bucket_le_"
          ^ match bound with Some b -> string_of_int b | None -> "inf")
          count)
    (Histogram.bucket_counts (Pipeline.load_latency_histogram t))

let to_csv ?(meta = []) t =
  let buf = Buffer.create 1024 in
  List.iter (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "# %s,%s\n" k v)) meta;
  metric_rows buf t;
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    "pc,spec,count,table_attempts,table_successes,calc_attempts,calc_successes,wasted_spec,dcache_misses,latency_sum\n";
  List.iter
    (fun (site : Pipeline.load_site) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%d,%d,%d,%d,%d,%d,%d,%d\n"
           site.Pipeline.site_pc
           (spec_name site.Pipeline.site_spec)
           (Histogram.count site.Pipeline.site_latency) site.Pipeline.site_table_attempts
           site.Pipeline.site_table_successes site.Pipeline.site_calc_attempts
           site.Pipeline.site_calc_successes site.Pipeline.site_wasted_spec
           site.Pipeline.site_dcache_misses (Histogram.sum site.Pipeline.site_latency)))
    (Pipeline.load_sites t);
  Buffer.contents buf

let to_text ~name ~output t =
  let s = Pipeline.stats t in
  let buf = Buffer.create 512 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') buf fmt in
  line "%s under %s:" name (Config.mechanism_name (Pipeline.config t).Config.mechanism);
  line "  cycles=%d insns=%d IPC=%.2f" s.Pipeline.cycles s.Pipeline.instructions (ipc s);
  line "  loads=%d (n=%d p=%d e=%d) stores=%d" s.Pipeline.loads s.Pipeline.loads_n
    s.Pipeline.loads_p s.Pipeline.loads_e s.Pipeline.stores;
  line "  spec: table %d/%d calc %d/%d wasted=%d" s.Pipeline.table_successes
    s.Pipeline.table_attempts s.Pipeline.calc_successes s.Pipeline.calc_attempts
    s.Pipeline.wasted_spec;
  line "  avg load latency=%.2f dmiss=%d imiss=%d btb_miss=%d"
    (float_of_int s.Pipeline.load_latency_sum /. float_of_int (max 1 s.Pipeline.loads))
    s.Pipeline.dcache_misses s.Pipeline.icache_misses s.Pipeline.btb_mispredicts;
  line "  stalls: busy=%d %s" (Pipeline.busy_cycles t)
    (String.concat " "
       (List.map
          (fun (cause, n) -> Printf.sprintf "%s=%d" (Stall.name cause) n)
          (Pipeline.stall_breakdown t)));
  line "  output=%s" (String.concat "," (String.split_on_char '\n' (String.trim output)));
  Buffer.contents buf
