(* Linear-scan register allocation.

   Virtual-register live intervals are approximated by a single
   [start, stop] range over a linearization of the function (block
   layout order, instructions numbered sequentially).  Intervals that
   cross a call site are allocated from the callee-saved pool so that
   calls need no caller-side save/restore; other intervals prefer
   caller-saved registers.  When no register is free the interval with
   the furthest end point is spilled to a frame slot. *)

module Ir = Elag_ir.Ir
module Cfg = Elag_ir.Cfg
module Liveness = Elag_ir.Liveness
module Bitset = Elag_ir.Bitset
module Reg = Elag_isa.Reg

type location =
  | In_reg of Reg.t
  | Spilled of int  (* spill-slot index, 4 bytes each *)

type result =
  { location : Ir.vreg -> location
  ; spill_count : int
  ; used_callee_saved : Reg.t list }

type interval =
  { vreg : Ir.vreg
  ; start : int
  ; stop : int
  ; crosses_call : bool }

(* The allocatable pools.  Argument registers and the return-value
   register are deliberately excluded so that call sequences never
   collide with allocated values. *)
let caller_saved_pool =
  List.init (Reg.tmp_last - Reg.tmp_first + 1) (fun i -> Reg.tmp_first + i)

let callee_saved_pool =
  List.init (Reg.saved_last - Reg.saved_first + 1) (fun i -> Reg.saved_first + i)

let build_intervals (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let live = Liveness.compute cfg in
  let ranges : (Ir.vreg, int * int) Hashtbl.t = Hashtbl.create 64 in
  let calls = ref [] in
  let touch v pos =
    match Hashtbl.find_opt ranges v with
    | None -> Hashtbl.replace ranges v (pos, pos)
    | Some (s, e) -> Hashtbl.replace ranges v (min s pos, max e pos)
  in
  (* Parameters are defined at position -1 (before the first
     instruction). *)
  List.iter (fun p -> touch p (-1)) f.Ir.params;
  let pos = ref 0 in
  List.iteri
    (fun i (b : Ir.block) ->
      let block_start = !pos in
      Bitset.iter (fun v -> touch v block_start) (Liveness.live_in live i);
      List.iter
        (fun inst ->
          List.iter (fun v -> touch v !pos) (Ir.inst_uses inst);
          List.iter (fun v -> touch v !pos) (Ir.inst_defs inst);
          (match inst with Ir.Call _ -> calls := !pos :: !calls | _ -> ());
          incr pos)
        b.Ir.insts;
      List.iter (fun v -> touch v !pos) (Ir.term_uses b.Ir.term);
      let block_end = !pos in
      Bitset.iter (fun v -> touch v block_end) (Liveness.live_out live i);
      incr pos)
    f.Ir.blocks;
  let call_positions = List.sort compare !calls in
  let crosses s e = List.exists (fun c -> s < c && c < e) call_positions in
  Hashtbl.fold
    (fun vreg (s, e) acc ->
      { vreg; start = s; stop = e; crosses_call = crosses s e } :: acc)
    ranges []
  |> List.sort (fun a b -> compare (a.start, a.vreg) (b.start, b.vreg))

let allocate (f : Ir.func) : result =
  let intervals = build_intervals f in
  let assignment : (Ir.vreg, location) Hashtbl.t = Hashtbl.create 64 in
  let free_caller = ref caller_saved_pool in
  let free_callee = ref callee_saved_pool in
  let used_callee = ref [] in
  let spill_count = ref 0 in
  (* active intervals sorted by stop *)
  let active = ref [] in
  let release reg =
    if List.mem reg caller_saved_pool then free_caller := reg :: !free_caller
    else free_callee := reg :: !free_callee
  in
  let expire current_start =
    let expired, still =
      List.partition (fun (iv, _) -> iv.stop < current_start) !active
    in
    List.iter (fun (_, reg) -> release reg) expired;
    active := still
  in
  let take_callee () =
    match !free_callee with
    | r :: rest ->
      free_callee := rest;
      if not (List.mem r !used_callee) then used_callee := r :: !used_callee;
      Some r
    | [] -> None
  in
  let take_caller () =
    match !free_caller with
    | r :: rest ->
      free_caller := rest;
      Some r
    | [] -> None
  in
  let fresh_spill () =
    let s = !spill_count in
    incr spill_count;
    Spilled s
  in
  List.iter
    (fun iv ->
      expire iv.start;
      let preferred, fallback =
        if iv.crosses_call then (take_callee, take_caller)
        else (take_caller, take_callee)
      in
      let reg =
        match preferred () with
        | Some r -> Some r
        | None -> fallback ()
      in
      match reg with
      | Some r ->
        (* record callee-saved usage even on fallback *)
        if List.mem r callee_saved_pool && not (List.mem r !used_callee) then
          used_callee := r :: !used_callee;
        (* a call-crossing interval that fell back to a caller-saved
           register would be clobbered: spill it instead *)
        if iv.crosses_call && List.mem r caller_saved_pool then begin
          release r;
          Hashtbl.replace assignment iv.vreg (fresh_spill ())
        end
        else begin
          Hashtbl.replace assignment iv.vreg (In_reg r);
          active :=
            List.sort (fun (a, _) (b, _) -> compare a.stop b.stop)
              ((iv, r) :: !active)
        end
      | None ->
        (* no register: spill the active interval with the furthest
           stop if it is further than ours *)
        let sorted = List.sort (fun (a, _) (b, _) -> compare b.stop a.stop) !active in
        (match sorted with
        | (victim, vreg_reg) :: _
          when victim.stop > iv.stop && victim.crosses_call = iv.crosses_call ->
          Hashtbl.replace assignment victim.vreg (fresh_spill ());
          active := List.filter (fun (a, _) -> a != victim) !active;
          Hashtbl.replace assignment iv.vreg (In_reg vreg_reg);
          active :=
            List.sort (fun (a, _) (b, _) -> compare a.stop b.stop)
              ((iv, vreg_reg) :: !active)
        | _ -> Hashtbl.replace assignment iv.vreg (fresh_spill ())))
    intervals;
  let location v =
    match Hashtbl.find_opt assignment v with
    | Some loc -> loc
    | None -> In_reg Reg.scratch0 (* dead vreg: any register is fine *)
  in
  { location; spill_count = !spill_count; used_callee_saved = List.sort compare !used_callee }
