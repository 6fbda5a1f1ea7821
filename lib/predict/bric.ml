(* Base-register cache (BRIC) for the hardware-only early-calculation
   baseline, after Austin & Sohi: an N-entry cache of base-register
   identities whose values are kept coherent with the register file by
   multicast writes.  At capacity 1 it is the paper's R_addr (§3.2.1):
   binding a different register is a miss whose value is usable only
   from the next cycle (the "binding has just been switched" hazard),
   and rebinding the same register is a hit that keeps it.

   Value coherence is modeled by the pipeline through the register
   scoreboard (a cached value is stale exactly when a write to the
   register is in flight), so the structure itself only tracks which
   registers are resident, with LRU replacement, plus the cycle an
   entry became resident (an entry allocated by this very load has no
   value yet). *)

type t =
  { regs : int array  (* resident registers, MRU first: slots [0, count) *)
  ; valid_from : int array  (* parallel to [regs] *)
  ; mutable count : int
  ; mutable probes : int
  ; mutable hits : int
  ; mutable evictions : int }

let reset t =
  Array.fill t.regs 0 (Array.length t.regs) 0;
  Array.fill t.valid_from 0 (Array.length t.valid_from) 0;
  t.count <- 0;
  t.probes <- 0;
  t.hits <- 0;
  t.evictions <- 0

let create capacity =
  if capacity <= 0 then invalid_arg "Bric.create";
  let t =
    { regs = Array.make capacity 0
    ; valid_from = Array.make capacity 0
    ; count = 0
    ; probes = 0
    ; hits = 0
    ; evictions = 0 }
  in
  reset t;
  t

let capacity t = Array.length t.regs

(* Slot holding [reg], or -1. *)
let find t reg =
  let i = ref 0 in
  while !i < t.count && t.regs.(!i) <> reg do
    incr i
  done;
  if !i < t.count then !i else -1

(* Shift slots [0, i) down one and put ([reg], [valid_from]) at the MRU
   slot 0; slot [i]'s old contents are overwritten. *)
let push_front t i reg valid_from =
  Array.blit t.regs 0 t.regs 1 i;
  Array.blit t.valid_from 0 t.valid_from 1 i;
  t.regs.(0) <- reg;
  t.valid_from.(0) <- valid_from

(* Pure hit test: resident with a usable value, no side effects. *)
let peek t ~cycle reg =
  let i = find t reg in
  i >= 0 && cycle >= t.valid_from.(i)

(* Probe for [reg] at [cycle]; allocates on miss (the entry's value
   becomes usable next cycle, after the register file is read).
   Returns true when the register was resident with a usable value. *)
let probe t ~cycle reg =
  t.probes <- t.probes + 1;
  let i = find t reg in
  if i >= 0 then begin
    (* refresh LRU position *)
    let valid_from = t.valid_from.(i) in
    push_front t i reg valid_from;
    let usable = cycle >= valid_from in
    if usable then t.hits <- t.hits + 1;
    usable
  end
  else begin
    if t.count >= capacity t then t.evictions <- t.evictions + 1
    else t.count <- t.count + 1;
    (* the LRU slot [count - 1] is either free or the victim *)
    push_front t (t.count - 1) reg (cycle + 1);
    false
  end

type stats = { br_probes : int; br_hits : int; br_evictions : int }

let stats t = { br_probes = t.probes; br_hits = t.hits; br_evictions = t.evictions }

(* --- fault-injection hooks (lib/verify) ------------------------------ *)

let flush t = t.count <- 0

let delay t ~until =
  for i = 0 to t.count - 1 do
    if t.valid_from.(i) < until then t.valid_from.(i) <- until
  done

let resident_count t = t.count
