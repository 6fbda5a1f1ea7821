(* Unbounded per-load stride predictor used for the prediction-rate
   methodology of Table 2: "a simulation methodology that performs
   individual operation prediction ... not affected by the limitations
   of a prediction cache".

   Every static load gets its own Figure 3 state machine, kept in
   arrays on the program's dense load numbering; the prediction rate
   of a load is the fraction of its dynamic executions whose address
   was predicted correctly (the first execution cannot be). *)

type t =
  { executions : int array
  ; correct : int array
  ; entries : Stride_entry.t array }

let create loads =
  { executions = Array.make loads 0
  ; correct = Array.make loads 0
  ; entries = Array.init loads (fun _ -> Stride_entry.allocate 0) }

(* Observe one dynamic execution of load [load] with computed address
   [ca]. *)
let observe t ~load ~ca =
  let n = t.executions.(load) in
  t.executions.(load) <- n + 1;
  let entry = t.entries.(load) in
  (* the first execution allocates the entry, which records ca *)
  if n = 0 then Stride_entry.replace entry ca;
  if Stride_entry.update entry ca && n > 0 then t.correct.(load) <- t.correct.(load) + 1

let rate t load =
  let n = t.executions.(load) in
  if n = 0 then None else Some (float_of_int t.correct.(load) /. float_of_int n)

let executions t load = t.executions.(load)

(* Aggregate prediction rate over a set of loads, dynamically weighted:
   total correct / total executions. *)
let aggregate_rate t loads =
  let correct = List.fold_left (fun acc k -> acc + t.correct.(k)) 0 loads in
  let total = List.fold_left (fun acc k -> acc + t.executions.(k)) 0 loads in
  if total = 0 then None else Some (float_of_int correct /. float_of_int total)
