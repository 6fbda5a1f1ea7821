(* Immediate dominators via the Cooper–Harvey–Kennedy iterative
   algorithm, over block indices and reverse-postorder numbers from
   {!Cfg}. *)

type t = { idom : int array (* the entry is its own; -1 when unreachable *) }

let compute (cfg : Cfg.t) =
  let idom = Array.make (Cfg.length cfg) (-1) in
  idom.(0) <- 0;
  let number = Cfg.rpo_number cfg in
  let rec intersect b1 b2 =
    if b1 = b2 then b1
    else if number b1 > number b2 then intersect idom.(b1) b2
    else intersect b1 idom.(b2)
  in
  let rpo = Cfg.rpo cfg in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 1 to Array.length rpo - 1 do
      let b = rpo.(k) in
      (* Intersect the predecessors processed so far; unreachable ones
         never are. *)
      let new_idom =
        List.fold_left
          (fun acc p ->
            if idom.(p) < 0 then acc else if acc < 0 then p else intersect p acc)
          (-1) (Cfg.preds cfg b)
      in
      if new_idom >= 0 && idom.(b) <> new_idom then begin
        idom.(b) <- new_idom;
        changed := true
      end
    done
  done;
  { idom }

let idom t i = if t.idom.(i) < 0 then None else Some t.idom.(i)

(* Walks the idom chain from [b] up to the entry. *)
let dominates t a b =
  let rec go b = a = b || (b <> 0 && t.idom.(b) >= 0 && go t.idom.(b)) in
  go b
