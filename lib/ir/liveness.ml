(* Per-block virtual-register liveness by backwards iterative
   dataflow over bitsets.  Used by dead-code elimination, LICM and the
   register allocator's interval construction. *)

type t =
  { live_in : Bitset.t array
  ; live_out : Bitset.t array }

let block_use_def (f : Ir.func) (b : Ir.block) =
  (* use = vregs read before any write in the block *)
  let use = Bitset.create f.next_vreg and def = Bitset.create f.next_vreg in
  let check v =
    if v < 0 || v >= f.next_vreg then
      invalid_arg
        (Printf.sprintf "Liveness.compute: %s: v%d is beyond next_vreg %d" f.name v
           f.next_vreg)
  in
  let read v =
    check v;
    if not (Bitset.mem def v) then Bitset.add use v
  in
  List.iter
    (fun inst ->
      List.iter read (Ir.inst_uses inst);
      List.iter
        (fun v ->
          check v;
          Bitset.add def v)
        (Ir.inst_defs inst))
    b.insts;
  List.iter read (Ir.term_uses b.term);
  (use, def)

let compute (cfg : Cfg.t) =
  let f = Cfg.func cfg in
  let n = Cfg.length cfg in
  let live_in = Array.init n (fun _ -> Bitset.create f.next_vreg) in
  let live_out = Array.init n (fun _ -> Bitset.create f.next_vreg) in
  let rpo = Cfg.rpo cfg in
  let use_def = Array.map (fun i -> block_use_def f (Cfg.block cfg i)) rpo in
  (* Sets only grow from empty, so [out] accumulates its successors'
     [in] sets in place.  Iterate in reverse RPO for fast
     convergence. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for k = Array.length rpo - 1 downto 0 do
      let i = rpo.(k) in
      let out = live_out.(i) in
      List.iter
        (fun s -> if Bitset.union_into live_in.(s) ~into:out then changed := true)
        (Cfg.succs cfg i);
      let use, def = use_def.(k) in
      if Bitset.flow ~use ~def ~out ~into:live_in.(i) then changed := true
    done
  done;
  { live_in; live_out }

let live_in t i = t.live_in.(i)
let live_out t i = t.live_out.(i)
