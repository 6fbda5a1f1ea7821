(* Branch target buffer: direct-mapped, tagged, with 2-bit saturating
   counters (the paper's 1K-entry, 2-bit configuration).  The slots are
   three flat int arrays indexed by slot, so creating a BTB is three
   block allocations rather than one record per slot. *)

type t =
  { tags : int array  (* -1 = invalid *)
  ; targets : int array
  ; counters : int array  (* 0..3; >=2 predicts taken *)
  ; mutable mispredictions : int }

type prediction = { pred_taken : bool; pred_target : int }

let reset t =
  let n = Array.length t.tags in
  Array.fill t.tags 0 n (-1);
  Array.fill t.targets 0 n 0;
  Array.fill t.counters 0 n 0;
  t.mispredictions <- 0

let create entries =
  if entries <= 0 then invalid_arg "Btb.create";
  let t =
    { tags = Array.make entries 0
    ; targets = Array.make entries 0
    ; counters = Array.make entries 0
    ; mispredictions = 0 }
  in
  reset t;
  t

let index t pc = pc mod Array.length t.tags

(* Predict the outcome of the control instruction at [pc].  A BTB miss
   predicts not-taken (sequential fetch). *)
let predict t pc =
  let i = index t pc in
  if t.tags.(i) = pc then
    { pred_taken = t.counters.(i) >= 2; pred_target = t.targets.(i) }
  else { pred_taken = false; pred_target = pc + 1 }

(* Resolve with the actual outcome; returns [true] when the earlier
   prediction was correct (same direction, and same target if taken). *)
let update t pc ~taken ~target =
  let i = index t pc in
  let hit = t.tags.(i) = pc in
  (* the {!predict} outcome, unboxed: a miss predicts not-taken *)
  let pred_taken = hit && t.counters.(i) >= 2 in
  let correct = pred_taken = taken && ((not taken) || t.targets.(i) = target) in
  if not correct then t.mispredictions <- t.mispredictions + 1;
  if hit then begin
    let c = t.counters.(i) in
    (* saturating 2-bit counter; int comparisons, not the polymorphic
       [min]/[max] *)
    t.counters.(i) <-
      (if taken then (if c >= 3 then 3 else c + 1) else if c <= 0 then 0 else c - 1);
    if taken then t.targets.(i) <- target
  end
  else if taken then begin
    (* allocate on taken branches *)
    t.tags.(i) <- pc;
    t.targets.(i) <- target;
    t.counters.(i) <- 2
  end;
  correct

let misprediction_count t = t.mispredictions

(* --- fault-injection hooks (lib/verify) ------------------------------ *)

let size t = Array.length t.tags

let slot_valid t i =
  if i < 0 || i >= size t then invalid_arg "Btb.slot_valid";
  t.tags.(i) >= 0

let corrupt t ~slot:i ?target ?counter ?tag () =
  if i < 0 || i >= size t then invalid_arg "Btb.corrupt";
  (match target with Some v -> t.targets.(i) <- v | None -> ());
  (match counter with
   | Some v -> t.counters.(i) <- (if v <= 0 then 0 else if v >= 3 then 3 else v)
   | None -> ());
  (match tag with Some v -> t.tags.(i) <- v | None -> ())
