(* In-memory span recorder for the benchmark's traced run.

   A span is one timed call across a layer boundary, made from the
   benchmark's own code: name, start, stop, parent and the minor-heap
   words allocated inside it.  Spans nest through an explicit stack
   (workload -> pass, job or iteration -> layer call), counts of work
   done (retired instructions, operations) are recorded beside them
   under the same names, and nothing is written until the run ends.
   Untraced runs pass [None] and pay one match per call. *)

type span =
  { id : int
  ; parent : int  (* -1 for a root span *)
  ; name : string
  ; start : float  (* seconds since the recorder was created *)
  ; stop : float
  ; words : float  (* minor-heap words allocated between start and stop *) }

type t =
  { origin : float
  ; mutable spans : span list  (* most recent first *)
  ; mutable next : int
  ; mutable stack : int list
  ; work : (string, int) Hashtbl.t }

let create () =
  { origin = Unix.gettimeofday ()
  ; spans = []
  ; next = 0
  ; stack = []
  ; work = Hashtbl.create 16 }

let record tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let words0 = Gc.minor_words () in
    let start = Unix.gettimeofday () -. t.origin in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () -. t.origin in
        let words = Gc.minor_words () -. words0 in
        t.stack <- List.tl t.stack;
        t.spans <- { id; parent; name; start; stop; words } :: t.spans)

let count tr name n =
  match tr with
  | None -> ()
  | Some t ->
    Hashtbl.replace t.work name
      (n + Option.value ~default:0 (Hashtbl.find_opt t.work name))

let work t name = Option.value ~default:0 (Hashtbl.find_opt t.work name)

(* Per-span time and words covered by its direct children. *)
let children t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let sec, w = Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl s.parent) in
        Hashtbl.replace tbl s.parent (sec +. s.stop -. s.start, w +. s.words)
      end)
    t.spans;
  fun id -> Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl id)

type totals = { calls : int; self_s : float; self_words : float }

(* Self time and self words of every span with this name: each span's
   own interval minus the part its children cover. *)
let totals t name =
  let child = children t in
  List.fold_left
    (fun acc s ->
      if s.name <> name then acc
      else
        let csec, cw = child s.id in
        { calls = acc.calls + 1
        ; self_s = acc.self_s +. (s.stop -. s.start -. csec)
        ; self_words = acc.self_words +. (s.words -. cw) })
    { calls = 0; self_s = 0.; self_words = 0. }
    t.spans

(* Chrome trace_event document (one complete event per span, parent
   and self time in the args), with [other] under "otherData". *)
let to_json t ~other =
  let module Trace = Elag_telemetry.Trace in
  let module Json = Elag_telemetry.Json in
  let tr = Trace.create ~process_name:"perfbench" () in
  let child = children t in
  let us s = int_of_float (s *. 1e6) in
  List.iter
    (fun s ->
      let csec, cw = child s.id in
      Trace.complete tr ~name:s.name ~cat:"span" ~ts:(us s.start)
        ~dur:(us (s.stop -. s.start))
        ~args:
          [ ("id", Json.Int s.id)
          ; ("parent", Json.Int s.parent)
          ; ("self_us", Json.Float ((s.stop -. s.start -. csec) *. 1e6))
          ; ("minor_words", Json.Float s.words)
          ; ("self_minor_words", Json.Float (s.words -. cw)) ]
        ())
    (List.rev t.spans);
  match Trace.to_json tr with
  | Json.Obj fields -> Json.Obj (fields @ [ ("otherData", other) ])
  | j -> j
