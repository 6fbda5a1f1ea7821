(* Loop unrolling (superblock-style, with exits kept live).

   Innermost loops with a single latch get their body replicated
   [factor] times; each copy's back edge is redirected to the next
   copy's header, and the last copy closes the cycle.  Virtual
   registers are shared between copies (the copies execute the same
   code, so reuse is semantics-preserving in this non-SSA IR); only
   labels are renamed.  Loop exits jump to their original targets from
   every copy, so early exits remain correct.

   This mirrors the IMPACT compiler's unrolling, and matters to the
   paper's evaluation beyond performance: it multiplies the number of
   static loads competing for address-prediction-table entries, which
   is what makes table size and compiler filtering (Figure 5a)
   observable effects. *)

module Ir = Elag_ir.Ir
module Cfg = Elag_ir.Cfg
module Dominators = Elag_ir.Dominators
module Loops = Elag_ir.Loops

let default_factor = 4
let max_body_insts = 48
let max_body_blocks = 8

let body_size (loop : Loops.loop) =
  Array.fold_left
    (fun acc i -> acc + List.length (Cfg.block loop.Loops.cfg i).Ir.insts)
    0 loop.Loops.body

let is_innermost (loops : Loops.loop list) (loop : Loops.loop) =
  not
    (List.exists
       (fun (other : Loops.loop) ->
         other.Loops.header <> loop.Loops.header && Loops.mem loop other.Loops.header)
       loops)

(* The loops all come from one snapshot, taken before any of them is
   unrolled; the copies each unrolling adds are outside every other
   candidate. *)
let unroll_loop (f : Ir.func) (loop : Loops.loop) ~factor =
  let cfg = loop.Loops.cfg in
  match loop.Loops.back_edges with
  | [ latch_index ] ->
    let copy_label k label = Printf.sprintf "%s.u%d" label k in
    let in_body label =
      match Cfg.index_opt cfg label with Some i -> Loops.mem loop i | None -> false
    in
    let rename k label = if in_body label then copy_label k label else label in
    let header = Cfg.label cfg loop.Loops.header in
    let latch = Cfg.label cfg latch_index in
    let copies = ref [] in
    for k = 1 to factor - 1 do
      Array.iter
        (fun i ->
          let b = Cfg.block cfg i in
          let label = b.Ir.label in
          let next_header =
            if label = latch then
              if k = factor - 1 then header else copy_label (k + 1) header
            else ""
          in
          let rename_target tgt =
            if label = latch && tgt = header then next_header else rename k tgt
          in
          let term = Ir.map_term_labels rename_target b.Ir.term in
          copies :=
            { Ir.label = copy_label k label; insts = b.Ir.insts; term } :: !copies)
        loop.Loops.body
    done;
    (* Redirect the original latch's back edge into the first copy. *)
    let latch_block = Cfg.block cfg latch_index in
    let redirect tgt = if tgt = header then copy_label 1 header else tgt in
    latch_block.Ir.term <- Ir.map_term_labels redirect latch_block.Ir.term;
    (* Copies share vregs with the original: instruction lists are
       reused as-is.  Insert the copies right after the latch block. *)
    let rec insert = function
      | [] -> List.rev !copies
      | b :: rest when b.Ir.label = latch -> (b :: List.rev !copies) @ rest
      | b :: rest -> b :: insert rest
    in
    f.Ir.blocks <- insert f.Ir.blocks;
    true
  | _ -> false

let run ?(factor = default_factor) (f : Ir.func) =
  if factor < 2 then false
  else begin
    let cfg = Cfg.of_func f in
    let dom = Dominators.compute cfg in
    let loops = Loops.compute cfg dom in
    let candidates =
      List.filter
        (fun loop ->
          is_innermost loops loop
          && List.length loop.Loops.back_edges = 1
          && Array.length loop.Loops.body <= max_body_blocks
          && body_size loop <= max_body_insts)
        loops
    in
    List.fold_left (fun acc loop -> unroll_loop f loop ~factor || acc) false candidates
  end
