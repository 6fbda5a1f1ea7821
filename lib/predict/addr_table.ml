(* PC-indexed, direct-mapped address prediction table (paper §3.2.2).

   Each entry holds {tag, PA, ST, STC} driven by the Figure 3 state
   machine.  A probe that misses makes no prediction; the entry is
   (re)allocated at update time. *)

type slot =
  { mutable tag : int  (* -1 = invalid *)
  ; entry : Stride_entry.t }

type t =
  { slots : slot array
  ; mutable probes : int
  ; mutable hits : int
  ; mutable correct : int }

let reset t =
  Array.iter
    (fun slot ->
      slot.tag <- -1;
      Stride_entry.replace slot.entry 0)
    t.slots;
  t.probes <- 0;
  t.hits <- 0;
  t.correct <- 0

let create entries =
  if entries <= 0 then invalid_arg "Addr_table.create";
  let t =
    { slots = Array.init entries (fun _ -> { tag = 0; entry = Stride_entry.allocate 0 })
    ; probes = 0
    ; hits = 0
    ; correct = 0 }
  in
  reset t;
  t

let size t = Array.length t.slots

let index t pc = pc mod Array.length t.slots

(* Pure tag check, no statistics. *)
let hit t pc = t.slots.(index t pc).tag = pc

(* The predicted address held in [pc]'s slot; a prediction for [pc]
   only when [hit t pc]. *)
let predicted_address t pc =
  Stride_entry.predicted_address t.slots.(index t pc).entry

let peek t pc = if hit t pc then Some (predicted_address t pc) else None

(* The counted decode-stage access: true on a tag hit. *)
let probe t pc =
  t.probes <- t.probes + 1;
  let h = hit t pc in
  if h then t.hits <- t.hits + 1;
  h

(* Update at the MEM stage with the computed address; allocates or
   replaces the entry on a tag mismatch.  Returns whether a previously
   predicted address matched (for statistics). *)
let update t pc ca =
  let slot = t.slots.(index t pc) in
  if slot.tag = pc then begin
    let correct = Stride_entry.update slot.entry ca in
    if correct then t.correct <- t.correct + 1;
    correct
  end
  else begin
    slot.tag <- pc;
    Stride_entry.replace slot.entry ca;
    false
  end

type stats = { st_probes : int; st_hits : int; st_correct : int }

let stats t = { st_probes = t.probes; st_hits = t.hits; st_correct = t.correct }

(* --- fault-injection hooks (lib/verify) ------------------------------ *)

let slot t i =
  if i < 0 || i >= Array.length t.slots then invalid_arg "Addr_table.slot";
  let s = t.slots.(i) in
  (s.tag, s.entry)

let set_tag t i tag =
  if i < 0 || i >= Array.length t.slots then invalid_arg "Addr_table.set_tag";
  t.slots.(i).tag <- tag
