(* Correctness gate: the reference cycle and instruction counts that
   every timed simulation must reproduce exactly.

   No_early and classified dual-cc come from the committed
   BENCH_pipeline.json rows.  Every other point of the SPEC grid,
   including the profile-reclassified dual-cc point, is pinned in
   perfbench/pins.json under its [Engine.Job.name]; regenerate it with
   [--write-pins] after an intended timing-model change.  Every preset
   retires the same stream, so instructions always come from the
   BENCH_pipeline.json row. *)

module Json = Elag_telemetry.Json
module Config = Elag_sim.Config

type row = { instructions : int; baseline_cycles : int; dual_cc_cycles : int }

type t = { rows : (string, row) Hashtbl.t; pins : (string, int) Hashtbl.t }

let pipeline_file = "BENCH_pipeline.json"
let pins_file = "perfbench/pins.json"
let dual_cc = Config.Mechanism.of_string_exn "dual-cc"

let read_json path =
  let ic = open_in_bin path in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  match Json.parse text with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let int_field path name j =
  match Option.bind (Json.member name j) Json.to_int with
  | Some n -> n
  | None -> failwith (Printf.sprintf "%s: missing integer %S" path name)

let load () =
  let rows = Hashtbl.create 32 in
  (match Json.member "workloads" (read_json pipeline_file) with
  | Some (Json.List ws) ->
    List.iter
      (fun w ->
        match Option.bind (Json.member "name" w) Json.to_str with
        | Some name ->
          let int = int_field pipeline_file in
          Hashtbl.replace rows name
            { instructions = int "instructions" w
            ; baseline_cycles = int "baseline_cycles" w
            ; dual_cc_cycles = int "cycles" w }
        | None -> failwith (pipeline_file ^ ": workload without a name"))
      ws
  | _ -> failwith (pipeline_file ^ ": no workloads list"));
  let pins = Hashtbl.create 256 in
  (match Json.member "cycles" (read_json pins_file) with
  | Some (Json.Obj kvs) ->
    List.iter
      (fun (k, v) ->
        match Json.to_int v with
        | Some c -> Hashtbl.replace pins k c
        | None -> failwith (Printf.sprintf "%s: %s is not an integer" pins_file k))
      kvs
  | _ -> failwith (pins_file ^ ": no cycles object"));
  { rows; pins }

let row t workload =
  match Hashtbl.find_opt t.rows workload with
  | Some r -> r
  | None -> failwith (Printf.sprintf "%s: no row for %s" pipeline_file workload)

(* [None] when the run matches its reference, else a one-line reason. *)
let check t ~workload ~mechanism ~reclassified (stats : Elag_sim.Pipeline.stats) =
  let r = row t workload in
  let key =
    Printf.sprintf "%s/%s%s" workload (Config.mechanism_name mechanism)
      (if reclassified then "+prof" else "")
  in
  let cycles =
    if reclassified then Hashtbl.find_opt t.pins key
    else if mechanism = Config.No_early then Some r.baseline_cycles
    else if mechanism = dual_cc then Some r.dual_cc_cycles
    else Hashtbl.find_opt t.pins key
  in
  match cycles with
  | None -> Some (key ^ ": no pinned cycles")
  | Some c when c <> stats.cycles || r.instructions <> stats.instructions ->
    Some
      (Printf.sprintf "%s: cycles/instructions %d/%d, pinned %d/%d" key
         stats.cycles stats.instructions c r.instructions)
  | Some _ -> None
