(* Fixed-bucket integer histogram.  Buckets are upper-bound inclusive:
   value v lands in the first bucket whose bound >= v, or in the
   implicit overflow bucket past the last bound. *)

type t =
  { bounds : int array
  ; counts : int array  (* length = Array.length bounds + 1; last = overflow *)
  ; mutable total : int
  ; mutable sum : int
  ; mutable max_seen : int }

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.sum <- 0;
  t.max_seen <- min_int

let create ~bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Histogram.create: empty bounds";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Histogram.create: bounds must be strictly increasing"
  done;
  let t =
    { bounds = Array.copy bounds
    ; counts = Array.make (n + 1) 0
    ; total = 0
    ; sum = 0
    ; max_seen = 0 }
  in
  reset t;
  t

let load_latency_bounds = [| 0; 1; 2; 3; 4; 8; 16; 32; 64 |]

(* index of the first bound >= v, or n (overflow) *)
let bucket_index t v =
  let n = Array.length t.bounds in
  if v > t.bounds.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.bounds.(mid) >= v then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe t v =
  let i = bucket_index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v > t.max_seen then t.max_seen <- v

let merge_into ~into t =
  if into.bounds <> t.bounds then invalid_arg "Histogram.merge_into: different bounds";
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
  into.total <- into.total + t.total;
  into.sum <- into.sum + t.sum;
  if t.max_seen > into.max_seen then into.max_seen <- t.max_seen

let count t = t.total
let sum t = t.sum
let max_seen t = if t.total = 0 then None else Some t.max_seen

let bucket_counts t =
  let n = Array.length t.bounds in
  List.init (n + 1) (fun i ->
      ((if i < n then Some t.bounds.(i) else None), t.counts.(i)))

let percentile t p =
  if t.total = 0 then None
  else begin
    let threshold = p /. 100. *. float_of_int t.total in
    let n = Array.length t.bounds in
    let rec scan i cum =
      if i > n then Some t.max_seen
      else
        let cum = cum + t.counts.(i) in
        if float_of_int cum >= threshold && cum > 0 then
          if i < n then Some (min t.bounds.(i) t.max_seen) else Some t.max_seen
        else scan (i + 1) cum
    in
    scan 0 0
  end

let to_json t =
  let buckets =
    List.filter_map
      (fun (bound, c) ->
        if c = 0 then None
        else
          let le =
            match bound with Some b -> Json.Int b | None -> Json.String "inf"
          in
          Some (Json.Obj [ ("le", le); ("count", Json.Int c) ]))
      (bucket_counts t)
  in
  Json.Obj
    [ ("count", Json.Int t.total)
    ; ("sum", Json.Int t.sum)
    ; ("max", if t.total = 0 then Json.Null else Json.Int t.max_seen)
    ; ("buckets", Json.List buckets) ]
