(* Control-flow graph over dense block indices: block [i] is the [i]-th
   block of [f.blocks]. *)

type t =
  { func : Ir.func
  ; blocks : Ir.block array
  ; index : (string, int) Hashtbl.t
  ; succs : int list array
  ; preds : int list array
  ; rpo : int array       (* reachable blocks, reverse postorder *)
  ; rpo_number : int array (* position in [rpo], -1 when unreachable *) }

let of_func (f : Ir.func) =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let index = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i (b : Ir.block) ->
      if Hashtbl.mem index b.label then
        invalid_arg
          (Printf.sprintf "Cfg.of_func: %s: two blocks are labelled %s" f.name b.label);
      Hashtbl.add index b.label i)
    blocks;
  let resolve l =
    match Hashtbl.find_opt index l with
    | Some i -> i
    | None ->
      invalid_arg
        (Printf.sprintf "Cfg.of_func: %s: successor label %s names no block" f.name l)
  in
  let succs =
    Array.map (fun (b : Ir.block) -> List.map resolve (Ir.successors b.term)) blocks
  in
  let preds = Array.make n [] in
  Array.iteri (fun i ss -> List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss) succs;
  (* Depth-first search from the entry; [rpo_number] doubles as the
     visited mark (-2 = on the search, then the postorder slot). *)
  let rpo_number = Array.make n (-1) in
  let postorder = Array.make n 0 in
  let count = ref 0 in
  let rec dfs i =
    if rpo_number.(i) = -1 then begin
      rpo_number.(i) <- -2;
      List.iter dfs succs.(i);
      postorder.(!count) <- i;
      incr count
    end
  in
  if n = 0 then ignore (Ir.entry_block f);
  dfs 0;
  let reached = !count in
  let rpo = Array.init reached (fun k -> postorder.(reached - 1 - k)) in
  Array.iteri (fun k i -> rpo_number.(i) <- k) rpo;
  { func = f; blocks; index; succs; preds; rpo; rpo_number }

let func t = t.func
let length t = Array.length t.blocks
let block t i = t.blocks.(i)
let label t i = t.blocks.(i).Ir.label
let index t l = Hashtbl.find t.index l
let index_opt t l = Hashtbl.find_opt t.index l
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)
let rpo t = t.rpo
let rpo_number t i = t.rpo_number.(i)
let reachable t i = t.rpo_number.(i) >= 0

(* Blocks never reached from the entry (dead after CFG simplification). *)
let unreachable_blocks t = List.filteri (fun i _ -> not (reachable t i)) t.func.blocks
