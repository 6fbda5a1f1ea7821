(* Metric registry: named counters and fixed-bucket histograms,
   emitted together as JSON or CSV.  Registration order is preserved
   so emitted reports are deterministic. *)

type counter = { mutable c_value : int }

type metric = Counter of counter | Hist of Histogram.t

type t =
  { mutable order : string list  (* reverse registration order *)
  ; metrics : (string, metric) Hashtbl.t }

let create () = { order = []; metrics = Hashtbl.create 32 }

let counter t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Counter c) -> c
  | Some (Hist _) ->
    invalid_arg (Printf.sprintf "Metrics.counter: %s is a histogram" name)
  | None ->
    let c = { c_value = 0 } in
    Hashtbl.replace t.metrics name (Counter c);
    t.order <- name :: t.order;
    c

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let set c v = c.c_value <- v
let value c = c.c_value

let attach_histogram t name h =
  if not (Hashtbl.mem t.metrics name) then t.order <- name :: t.order;
  Hashtbl.replace t.metrics name (Hist h)

let in_order t =
  List.rev_map (fun name -> (name, Hashtbl.find t.metrics name)) t.order

let to_json t =
  let counters, hists =
    List.fold_left
      (fun (cs, hs) (name, metric) ->
        match metric with
        | Counter c -> ((name, Json.Int c.c_value) :: cs, hs)
        | Hist h -> (cs, (name, Histogram.to_json h) :: hs))
      ([], []) (List.rev (in_order t))
  in
  Json.Obj [ ("counters", Json.Obj counters); ("histograms", Json.Obj hists) ]

let to_csv t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "metric,value\n";
  List.iter
    (fun (name, metric) ->
      match metric with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%s,%d\n" name c.c_value)
      | Hist h ->
        List.iter
          (fun (bound, count) ->
            if count > 0 then
              let le =
                match bound with Some b -> string_of_int b | None -> "inf"
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket_le_%s,%d\n" name le count))
          (Histogram.bucket_counts h))
    (in_order t);
  Buffer.contents buf
