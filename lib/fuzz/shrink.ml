(* Greedy divergence-preserving minimizer.

   Works on the generator's [Program.item list]: only [Insn] items are
   ever deleted or simplified (labels stay, so control targets remain
   resolvable), and every candidate is accepted only if [check] says
   the original failure still reproduces — callers build [check] from
   {!Elag_verify.Oracle.signature}, so a deletion step cannot silently
   swap the original failure for a different one, and a candidate that
   breaks assembly or lint simply counts as "does not reproduce".

   Two passes per round, iterated to fixpoint (at most [max_rounds]):
   chunked deletion with halving chunk sizes (delete big runs first,
   then single instructions), then per-instruction simplification
   (loads to [li 0], anything to [nop]) for instructions that cannot be
   deleted outright.  Programs here are generator-sized (tens of
   instructions), so the O(n^2) candidate count is cheap next to the
   oracle runs it triggers. *)

module Insn = Elag_isa.Insn
module Program = Elag_isa.Program

let insn_count items =
  List.fold_left
    (fun n -> function Program.Insn _ -> n + 1 | _ -> n)
    0 items

(* positions (indices into [items]) that hold instructions *)
let insn_positions items =
  let _, acc =
    List.fold_left
      (fun (i, acc) item ->
        match item with
        | Program.Insn _ -> (i + 1, i :: acc)
        | _ -> (i + 1, acc))
      (0, []) items
  in
  List.rev acc

let drop_positions items positions =
  List.filteri (fun i _ -> not (List.mem i positions)) items

let replace_position items pos insn =
  List.mapi
    (fun i item -> if i = pos then Program.Insn insn else item)
    items

let simplifications = function
  | Insn.Nop -> []
  | Insn.Load { dst; _ } -> [ Insn.Li { dst; imm = 0 }; Insn.Nop ]
  | _ -> [ Insn.Nop ]

let max_rounds = 8

let minimize ~check items =
  let current = ref items in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < max_rounds do
    changed := false;
    incr rounds;
    (* chunked deletion, halving chunk sizes down to 1 *)
    let rec chunk_pass size =
      if size >= 1 then begin
        let continue_ = ref true in
        while !continue_ do
          continue_ := false;
          let positions = insn_positions !current in
          let n = List.length positions in
          let i = ref 0 in
          while !i + size <= n do
            let victim =
              List.filteri (fun j _ -> j >= !i && j < !i + size) positions
            in
            let candidate = drop_positions !current victim in
            if check candidate then begin
              current := candidate;
              changed := true;
              continue_ := true
              (* positions shifted: restart the sweep at this chunk size *)
            end
            else incr i;
            if !continue_ then i := n + 1 (* break inner sweep *)
          done
        done;
        chunk_pass (size / 2)
      end
    in
    chunk_pass (max 1 (List.length (insn_positions !current) / 2));
    (* per-instruction simplification *)
    List.iteri
      (fun pos item ->
        match item with
        | Program.Insn insn ->
          List.iter
            (fun simpler ->
              let candidate = replace_position !current pos simpler in
              if check candidate then begin
                current := candidate;
                changed := true
              end)
            (simplifications insn)
        | _ -> ())
      !current
  done;
  !current
