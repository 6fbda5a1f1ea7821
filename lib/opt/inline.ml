(* Function inlining.

   Small non-recursive callees are inlined bottom-up in the call graph
   (callees processed before callers), so chains of small helpers
   collapse.  The paper's heuristics rely on inlining to remove
   frequently-executed calls inside loops, which would otherwise force
   loads to be classified conservatively. *)

module Ir = Elag_ir.Ir

let default_threshold = 40

let func_size (f : Ir.func) =
  List.fold_left (fun acc (b : Ir.block) -> acc + 1 + List.length b.Ir.insts) 0 f.Ir.blocks

let callees_of (f : Ir.func) =
  List.concat_map
    (fun (b : Ir.block) ->
      List.filter_map
        (function Ir.Call { callee; _ } -> Some callee | _ -> None)
        b.Ir.insts)
    f.Ir.blocks

(* Functions involved in call-graph cycles (including self-recursion)
   are never inlined. *)
let recursive_set (funcs : Ir.func list) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace tbl f.Ir.name (callees_of f)) funcs;
  let in_cycle = Hashtbl.create 16 in
  let rec reaches target seen name =
    if List.mem name seen then false
    else
      match Hashtbl.find_opt tbl name with
      | None -> false
      | Some cs ->
        List.exists (fun c -> c = target || reaches target (name :: seen) c) cs
  in
  List.iter
    (fun (f : Ir.func) ->
      if reaches f.Ir.name [] f.Ir.name then Hashtbl.replace in_cycle f.Ir.name ())
    funcs;
  in_cycle

(* Inline one call site: splits [block] at [call_inst] and splices a
   renamed copy of [callee] in between. *)
let inline_site (caller : Ir.func) (block : Ir.block) (call_inst : Ir.inst)
    (callee : Ir.func) =
  let dst, args =
    match call_inst with
    | Ir.Call { dst; args; _ } -> (dst, args)
    | _ -> invalid_arg "inline_site"
  in
  (* Renaming maps. *)
  let vreg_offset = caller.Ir.next_vreg in
  caller.Ir.next_vreg <- caller.Ir.next_vreg + callee.Ir.next_vreg;
  let rv v = v + vreg_offset in
  let tag = Ir.fresh_label caller "inl" in
  let rl label = Printf.sprintf "%s.%s" tag label in
  let slot_map = Hashtbl.create 8 in
  List.iter
    (fun (s : Ir.slot) ->
      let ns = Ir.add_slot caller ~size:s.Ir.slot_size ~align:s.Ir.slot_align in
      Hashtbl.replace slot_map s.Ir.slot_id ns)
    callee.Ir.slots;
  let continuation = rl "cont" in
  let rename v = Ir.Reg (rv v) in
  (* uses through [rename], then the definition *)
  let rename_inst inst =
    match Ir.map_inst_uses rename inst with
    | Ir.Bin (op, d, a, b) -> Ir.Bin (op, rv d, a, b)
    | Ir.Mov (d, a) -> Ir.Mov (rv d, a)
    | Ir.Load l -> Ir.Load { l with dst = rv l.dst }
    | Ir.Store _ as s -> s
    | Ir.Call c -> Ir.Call { c with dst = Option.map rv c.dst }
    | Ir.Global_addr (d, l) -> Ir.Global_addr (rv d, l)
    | Ir.Slot_addr (d, s) -> Ir.Slot_addr (rv d, Hashtbl.find slot_map s)
  in
  let copied_blocks =
    List.map
      (fun (b : Ir.block) ->
        let insts = List.map rename_inst b.Ir.insts in
        match b.Ir.term with
        | Ir.Ret op ->
          (* return becomes an assignment to the call destination
             followed by a jump to the continuation *)
          let extra =
            match (dst, op) with
            | Some d, Some v -> [ Ir.Mov (d, Ir.map_operand rename v) ]
            | Some d, None -> [ Ir.Mov (d, Ir.Imm 0) ]
            | None, _ -> []
          in
          { Ir.label = rl b.Ir.label; insts = insts @ extra; term = Ir.Jmp continuation }
        | t ->
          { Ir.label = rl b.Ir.label
          ; insts
          ; term = Ir.map_term_labels rl (Ir.map_term_uses rename t) })
      callee.Ir.blocks
  in
  (* Split the caller block. *)
  let rec split before = function
    | [] -> invalid_arg "inline_site: call not found"
    | inst :: rest when inst == call_inst -> (List.rev before, rest)
    | inst :: rest -> split (inst :: before) rest
  in
  let before, after = split [] block.Ir.insts in
  let param_moves =
    List.map2 (fun p a -> Ir.Mov (rv p, a)) callee.Ir.params args
  in
  let cont_block = { Ir.label = continuation; insts = after; term = block.Ir.term } in
  let callee_entry = rl (Ir.entry_block callee).Ir.label in
  block.Ir.insts <- before @ param_moves;
  block.Ir.term <- Ir.Jmp callee_entry;
  (* Insert the copied blocks and continuation right after [block]. *)
  let rec insert = function
    | [] -> []
    | b :: rest when b == block -> b :: (copied_blocks @ [ cont_block ]) @ rest
    | b :: rest -> b :: insert rest
  in
  caller.Ir.blocks <- insert caller.Ir.blocks

(* Inline every eligible call site in [caller]. *)
let run_func ~threshold ~by_name ~recursive (caller : Ir.func) =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let site =
      List.find_map
        (fun (b : Ir.block) ->
          List.find_map
            (fun inst ->
              match inst with
              | Ir.Call { callee; _ } -> begin
                match Hashtbl.find_opt by_name callee with
                | Some target
                  when target.Ir.name <> caller.Ir.name
                       && (not (Hashtbl.mem recursive callee))
                       && func_size target <= threshold ->
                  Some (b, inst, target)
                | _ -> None
              end
              | _ -> None)
            b.Ir.insts)
        caller.Ir.blocks
    in
    match site with
    | Some (b, inst, target) ->
      inline_site caller b inst target;
      changed := true;
      continue_ := true
    | None -> ()
  done;
  !changed

let run ?(threshold = default_threshold) (p : Ir.program) =
  let by_name = Hashtbl.create 16 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace by_name f.Ir.name f) p.Ir.funcs;
  let recursive = recursive_set p.Ir.funcs in
  (* Bottom-up: process small functions first so helpers collapse into
     their callers before the callers are considered. *)
  let ordered =
    List.sort (fun a b -> compare (func_size a) (func_size b)) p.Ir.funcs
  in
  List.fold_left
    (fun acc f -> run_func ~threshold ~by_name ~recursive f || acc)
    false ordered
