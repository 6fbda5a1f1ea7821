(* Induction-variable strength reduction.

   A basic induction variable is a virtual register [v] whose only
   definition inside a loop is [v = v + c] (or [v - c]) with the update
   block dominating every latch.  A use [d = v * k] or [d = v << k]
   with a constant [k] is replaced by a new accumulator [s]:

     preheader:           s = v * k
     after the update:    s = s + step_scaled
     at the use:          d = s

   Because the accumulator update is placed immediately after the
   single IV update, [s = v * k] holds at every other program point in
   the loop, so the replacement is position-independent. *)

module Ir = Elag_ir.Ir
module Cfg = Elag_ir.Cfg
module Dominators = Elag_ir.Dominators
module Loops = Elag_ir.Loops

type basic_iv =
  { iv : Ir.vreg
  ; step : int
  ; update_block : int
  ; update_inst : Ir.inst }

let find_basic_ivs (dom : Dominators.t) (loop : Loops.loop) =
  (* map v -> (count of defs, latest update info).  The IVs come out in
     this table's fold order, which decides which one is reduced first;
     [~random:false] keeps it fixed under OCAMLRUNPARAM=R. *)
  let candidates = Hashtbl.create ~random:false 8 in
  Array.iter
    (fun i ->
      let b = Cfg.block loop.Loops.cfg i in
      List.iter
        (fun inst ->
          List.iter
            (fun d ->
              (* immediate second, as in [candidate_scale] *)
              let step =
                match inst with
                | Ir.Bin (Ir.Add, v, Ir.Reg v', Ir.Imm c) when v = d && v' = v -> Some c
                | Ir.Bin (Ir.Sub, v, Ir.Reg v', Ir.Imm c) when v = d && v' = v -> Some (-c)
                | _ -> None
              in
              let prev = Option.value (Hashtbl.find_opt candidates d) ~default:(0, None) in
              let count = fst prev + 1 in
              Hashtbl.replace candidates d
                (count, match step with
                        | Some c -> Some (c, i, inst)
                        | None -> None))
            (Ir.inst_defs inst))
        b.Ir.insts)
    loop.Loops.body;
  Hashtbl.fold
    (fun v (count, info) acc ->
      match info with
      | Some (step, update_block, update_inst)
        when count = 1
             && List.for_all
                  (fun latch -> Dominators.dominates dom update_block latch)
                  loop.Loops.back_edges ->
        { iv = v; step; update_block; update_inst } :: acc
      | _ -> acc)
    candidates []

let insert_after_update (loop : Loops.loop) biv inst =
  let b = Cfg.block loop.Loops.cfg biv.update_block in
  let rec insert = function
    | [] -> invalid_arg "Strength_reduce: induction-variable update vanished"
    | i :: rest when i == biv.update_inst -> i :: inst :: rest
    | i :: rest -> i :: insert rest
  in
  b.Ir.insts <- insert b.Ir.insts

(* Multiplier of a candidate use of [iv], if it is a constant-scale
   operation worth reducing.  Only the immediate-second shapes occur:
   the scalar fixpoint before this pass puts the immediate of every
   commutative operation second ({!Local_opt}). *)
let candidate_scale iv = function
  | Ir.Bin (Ir.Mul, d, Ir.Reg v, Ir.Imm k) when v = iv -> Some (d, k)
  | Ir.Bin (Ir.Sll, d, Ir.Reg v, Ir.Imm k) when v = iv && k >= 0 && k < 31 ->
    Some (d, 1 lsl k)
  | _ -> None

let reduce_one (f : Ir.func) (loop : Loops.loop) (biv : basic_iv) =
  let cfg = loop.Loops.cfg in
  (* Find one candidate instruction in the loop. *)
  let found = ref None in
  Array.iter
    (fun i ->
      if !found = None then begin
        let b = Cfg.block cfg i in
        List.iter
          (fun inst ->
            if !found = None then
              match candidate_scale biv.iv inst with
              | Some (d, k) when k <> 0 && k <> 1 -> found := Some (b, inst, d, k)
              | _ -> ())
          b.Ir.insts
      end)
    loop.Loops.body;
  match !found with
  | None -> false
  | Some (use_block, use_inst, d, k) ->
    let s = Ir.fresh_vreg f in
    (* preheader initialization *)
    let pre = Licm.make_preheader f loop in
    pre.Ir.insts <- pre.Ir.insts @ [ Ir.Bin (Ir.Mul, s, Ir.Reg biv.iv, Ir.Imm k) ];
    insert_after_update loop biv (Ir.Bin (Ir.Add, s, Ir.Reg s, Ir.Imm (biv.step * k)));
    (* replace the use *)
    use_block.Ir.insts <-
      List.map
        (fun inst -> if inst == use_inst then Ir.Mov (d, Ir.Reg s) else inst)
        use_block.Ir.insts;
    true

let run_loop (f : Ir.func) (loop : Loops.loop) =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let cfg = Cfg.of_func f in
    match Loops.rebase cfg loop with
    | None -> ()
    | Some loop ->
      let dom = Dominators.compute cfg in
      let ivs = find_basic_ivs dom loop in
      (* [reduce_one] changes the CFG only once it succeeds, so the
         snapshot stays current for every attempt *)
      if List.exists (fun biv -> reduce_one f loop biv) ivs then begin
        changed := true;
        continue_ := true
      end
  done;
  !changed

let run (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let dom = Dominators.compute cfg in
  let loops = Loops.compute cfg dom in
  List.fold_left (fun acc loop -> run_loop f loop || acc) false loops
