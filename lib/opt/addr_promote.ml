(* Pointer induction-variable formation (address strength reduction).

   Converts register+register memory addressing over a loop induction
   variable into an incremented pointer with register+offset
   addressing — the code shape of the paper's Figure 4b, where
   [arr\[ind\[i\]\]]-style walks compile to

     ld   r4, r17(0)
     ...
     add  r17, r17, 4

   For each memory access in a loop whose address is
   [Base_index (b, x)] with [b] invariant in the loop and [x] a basic
   induction variable with constant step, a new pointer [p] is created:

     preheader:          p = b + x
     after x's update:   p = p + step

   and the access is rewritten to [Base (p, 0)].  Because [p] is
   bumped immediately after every update of [x], the invariant
   [p = b + x] holds at every other program point, so the rewrite is
   position-independent.  Accesses sharing the same (b, x) pair reuse
   one pointer. *)

module Ir = Elag_ir.Ir
module Cfg = Elag_ir.Cfg
module Dominators = Elag_ir.Dominators
module Loops = Elag_ir.Loops

let run_loop (f : Ir.func) (loop : Loops.loop) =
  let cfg = Cfg.of_func f in
  match Loops.rebase cfg loop with
  | None -> false
  | Some loop ->
    let dom = Dominators.compute cfg in
    let ivs = Strength_reduce.find_basic_ivs dom loop in
    let defs_in_loop = Licm.loop_def_counts loop in
    let invariant v = not (Hashtbl.mem defs_in_loop v) in
    let iv_of x =
      List.find_opt (fun (iv : Strength_reduce.basic_iv) -> iv.iv = x) ivs
    in
    (* pointer cache: (base, iv) -> pointer vreg.  Preheader inits and
       post-update bumps are deferred until after the address rewrite,
       because inserting into a block that is concurrently being
       rebuilt would be lost. *)
    let pointers = Hashtbl.create 8 in
    let pending = ref [] in
    let changed = ref false in
    let pointer_for b (iv : Strength_reduce.basic_iv) =
      match Hashtbl.find_opt pointers (b, iv.Strength_reduce.iv) with
      | Some p -> p
      | None ->
        let p = Ir.fresh_vreg f in
        Hashtbl.replace pointers (b, iv.Strength_reduce.iv) p;
        pending := (p, b, iv) :: !pending;
        p
    in
    let promote_addr = function
      | Ir.Base_index (b, x) when invariant b -> begin
        match iv_of x with
        | Some iv ->
          changed := true;
          Ir.Base (pointer_for b iv, 0)
        | None -> Ir.Base_index (b, x)
      end
      | addr -> addr
    in
    Array.iter
      (fun i ->
        let blk = Cfg.block cfg i in
        blk.Ir.insts <-
          List.map
            (fun inst ->
              match inst with
              | Ir.Load l -> Ir.Load { l with addr = promote_addr l.addr }
              | Ir.Store st -> Ir.Store { st with addr = promote_addr st.addr }
              | other -> other)
            blk.Ir.insts)
      loop.Loops.body;
    (* Phase 2: materialize preheader inits and post-update bumps.  The
       first init makes the preheader, which every later one would find
       again. *)
    let preheader = lazy (Licm.make_preheader f loop) in
    List.iter
      (fun (p, b, (iv : Strength_reduce.basic_iv)) ->
        let pre = Lazy.force preheader in
        pre.Ir.insts <-
          pre.Ir.insts @ [ Ir.Bin (Ir.Add, p, Ir.Reg b, Ir.Reg iv.Strength_reduce.iv) ];
        Strength_reduce.insert_after_update loop iv
          (Ir.Bin (Ir.Add, p, Ir.Reg p, Ir.Imm iv.Strength_reduce.step)))
      !pending;
    !changed

let run (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let dom = Dominators.compute cfg in
  let loops = Loops.compute cfg dom in
  List.fold_left (fun acc loop -> run_loop f loop || acc) false loops
