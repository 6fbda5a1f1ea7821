(* Natural-loop detection from back edges (an edge t -> h where h
   dominates t).  Loops are reported with their nesting depth and in
   inner-first order, which is the order the paper's cyclic heuristic
   processes them in (Section 4.1). *)

type loop =
  { cfg : Cfg.t
  ; header : int
  ; body : int array     (* header included, in label order *)
  ; members : Bitset.t
  ; depth : int          (* 1 = outermost *)
  ; back_edges : int list  (* latch blocks *) }

type t = loop list  (* inner-first (deepest first) *)

let by_label cfg a b = String.compare (Cfg.label cfg a) (Cfg.label cfg b)

(* Blocks reaching [latch] without passing through the header, added
   to [members]. *)
let natural_loop cfg members ~latch =
  let rec pull i =
    if not (Bitset.mem members i) then begin
      Bitset.add members i;
      List.iter pull (Cfg.preds cfg i)
    end
  in
  pull latch

let compute (cfg : Cfg.t) (dom : Dominators.t) : t =
  let n = Cfg.length cfg in
  (* Latches per header, latest back edge first. *)
  let latches = Array.make n [] in
  for b = 0 to n - 1 do
    if Cfg.reachable cfg b then
      List.iter
        (fun h -> if Dominators.dominates dom h b then latches.(h) <- b :: latches.(h))
        (Cfg.succs cfg b)
  done;
  (* One loop per header, in descending label order. *)
  let headers = List.filter (fun h -> latches.(h) <> []) (List.init n Fun.id) in
  let headers = List.sort (fun a b -> by_label cfg b a) headers in
  let bodies =
    List.map
      (fun header ->
        let members = Bitset.create n in
        Bitset.add members header;
        List.iter (fun latch -> natural_loop cfg members ~latch) latches.(header);
        (header, members))
      headers
  in
  (* Depth = number of loops containing this loop's header (itself
     included). *)
  let loops =
    List.map
      (fun (header, members) ->
        let depth =
          List.length (List.filter (fun (_, m) -> Bitset.mem m header) bodies)
        in
        let body = Array.of_list (Bitset.elements members) in
        Array.sort (by_label cfg) body;
        { cfg; header; body; members; depth; back_edges = latches.(header) })
      bodies
  in
  List.stable_sort (fun a b -> compare b.depth a.depth) loops

let innermost_containing (loops : t) i =
  List.find_opt (fun l -> Bitset.mem l.members i) loops

let mem loop i = Bitset.mem loop.members i

let rebase cfg loop =
  let find i =
    match Cfg.index_opt cfg (Cfg.label loop.cfg i) with
    | Some j when Cfg.reachable cfg j -> j
    | _ -> raise Exit
  in
  match Array.map find loop.body with
  | exception Exit -> None
  | body ->
    let members = Bitset.create (Cfg.length cfg) in
    Array.iter (Bitset.add members) body;
    Some
      { cfg; header = find loop.header; body; members; depth = loop.depth
      ; back_edges = List.map find loop.back_edges }
