(* Branch target buffer: direct-mapped, tagged, with 2-bit saturating
   counters (the paper's 1K-entry, 2-bit configuration). *)

type slot =
  { mutable tag : int  (* -1 = invalid *)
  ; mutable target : int
  ; mutable counter : int (* 0..3; >=2 predicts taken *) }

type t =
  { slots : slot array
  ; mutable lookups : int
  ; mutable mispredictions : int }

type prediction = { pred_taken : bool; pred_target : int }

let create entries =
  if entries <= 0 then invalid_arg "Btb.create";
  { slots = Array.init entries (fun _ -> { tag = -1; target = 0; counter = 0 })
  ; lookups = 0
  ; mispredictions = 0 }

let index t pc = pc mod Array.length t.slots

(* Predict the outcome of the control instruction at [pc].  A BTB miss
   predicts not-taken (sequential fetch). *)
let predict t pc =
  t.lookups <- t.lookups + 1;
  let slot = t.slots.(index t pc) in
  if slot.tag = pc then { pred_taken = slot.counter >= 2; pred_target = slot.target }
  else { pred_taken = false; pred_target = pc + 1 }

(* Resolve with the actual outcome; returns [true] when the earlier
   prediction was correct (same direction, and same target if taken). *)
let update t pc ~taken ~target =
  let slot = t.slots.(index t pc) in
  (* the {!predict} outcome, unboxed: a miss predicts not-taken *)
  let pred_taken = slot.tag = pc && slot.counter >= 2 in
  let correct = pred_taken = taken && ((not taken) || slot.target = target) in
  if not correct then t.mispredictions <- t.mispredictions + 1;
  if slot.tag = pc then begin
    slot.counter <-
      (if taken then min 3 (slot.counter + 1) else max 0 (slot.counter - 1));
    if taken then slot.target <- target
  end
  else if taken then begin
    (* allocate on taken branches *)
    slot.tag <- pc;
    slot.target <- target;
    slot.counter <- 2
  end;
  correct

let misprediction_count t = t.mispredictions

(* --- fault-injection hooks (lib/verify) ------------------------------ *)

let size t = Array.length t.slots

let slot_valid t i =
  if i < 0 || i >= Array.length t.slots then invalid_arg "Btb.slot_valid";
  t.slots.(i).tag >= 0

let corrupt t ~slot:i ?target ?counter ?tag () =
  if i < 0 || i >= Array.length t.slots then invalid_arg "Btb.corrupt";
  let s = t.slots.(i) in
  (match target with Some v -> s.target <- v | None -> ());
  (match counter with Some v -> s.counter <- max 0 (min 3 v) | None -> ());
  (match tag with Some v -> s.tag <- v | None -> ())
