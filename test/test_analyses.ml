(* Reference test for the IR analyses.  [Cfg], [Dominators], [Loops]
   and [Liveness] are compared, on every block and every pair of
   blocks, with brute-force definitions written here over labels and
   lists:
   - edges straight from the terminators, reachability by a worklist;
   - [a] dominates [b] when [b] is unreachable once [a] is removed;
   - natural loops by walking predecessors back from each latch;
   - liveness by set dataflow to a fixpoint in block order.
   The IR comes from hand-built corner cases (unreachable blocks,
   self-loops, [Br] with [ifso = ifnot], an irreducible cycle) and from
   snapshots of real programs after lowering and after each optimizer
   pass that changed them; a pass that reports no change must leave its
   function's printed form as it was. *)

module Ir = Elag_ir.Ir
module Cfg = Elag_ir.Cfg
module Dominators = Elag_ir.Dominators
module Loops = Elag_ir.Loops
module Liveness = Elag_ir.Liveness
module Bitset = Elag_ir.Bitset
module Insn = Elag_isa.Insn
module Opt = Elag_opt
module IS = Set.Make (Int)
module SS = Set.Make (String)

let fail fmt = Printf.ksprintf (fun msg -> Alcotest.fail msg) fmt

(* --- brute-force definitions ----------------------------------------------- *)

let labels (f : Ir.func) = List.map (fun (b : Ir.block) -> b.label) f.blocks
let block (f : Ir.func) l = List.find (fun (b : Ir.block) -> b.label = l) f.blocks
let succ_labels f l = Ir.successors (block f l).term

(* Every edge [(src, dst)], in block order then branch order. *)
let edges f =
  List.concat_map (fun l -> List.map (fun s -> (l, s)) (succ_labels f l)) (labels f)

(* The source of every edge into [l], in that order. *)
let pred_labels f l =
  List.filter_map (fun (s, d) -> if d = l then Some s else None) (edges f)

let reach_from f ~avoid start =
  let seen = Hashtbl.create 16 in
  let rec go = function
    | [] -> ()
    | l :: rest when Hashtbl.mem seen l || Some l = avoid -> go rest
    | l :: rest ->
      Hashtbl.replace seen l ();
      go (succ_labels f l @ rest)
  in
  go [ start ];
  seen

let entry f = List.hd (labels f)

let reachable f =
  let seen = reach_from f ~avoid:None (entry f) in
  fun l -> Hashtbl.mem seen l

(* [dominated f a b]: every path from the entry to [b] passes [a]. *)
let dominated f =
  let reach = reachable f in
  let without = Hashtbl.create 16 in
  List.iter
    (fun a -> Hashtbl.replace without a (reach_from f ~avoid:(Some a) (entry f)))
    (labels f);
  fun a b ->
    a = b || (reach a && reach b && not (Hashtbl.mem (Hashtbl.find without a) b))

(* The reverse postorder of a depth-first search visiting successors
   in branch order. *)
let rpo f =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      List.iter dfs (succ_labels f l);
      order := l :: !order
    end
  in
  dfs (entry f);
  !order

type loop = { header : string; body : string list; depth : int; latches : string list }

let loops f =
  let dom = dominated f and reach = reachable f in
  let back = List.filter (fun (t, h) -> reach t && dom h t) (edges f) in
  let headers = List.sort_uniq (fun a b -> String.compare b a) (List.map snd back) in
  let raw =
    List.map
      (fun h ->
        (* latest back edge first *)
        let latches =
          List.rev (List.filter_map (fun (t, d) -> if d = h then Some t else None) back)
        in
        let rec pull body = function
          | [] -> body
          | l :: rest when SS.mem l body -> pull body rest
          | l :: rest -> pull (SS.add l body) (pred_labels f l @ rest)
        in
        (h, latches, pull (SS.singleton h) latches))
      headers
  in
  let loops =
    List.map
      (fun (header, latches, body) ->
        let depth = List.length (List.filter (fun (_, _, b) -> SS.mem header b) raw) in
        { header; body = SS.elements body; depth; latches })
      raw
  in
  List.stable_sort (fun a b -> compare b.depth a.depth) loops

let liveness f =
  let reach = reachable f in
  let use_def l =
    let b = block f l in
    let read def = List.fold_left (fun u v -> if IS.mem v def then u else IS.add v u) in
    let use, def =
      List.fold_left
        (fun (use, def) inst ->
          (read def use (Ir.inst_uses inst), IS.union def (IS.of_list (Ir.inst_defs inst))))
        (IS.empty, IS.empty) b.insts
    in
    (read def use (Ir.term_uses b.term), def)
  in
  let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
  let get tbl l = Option.value (Hashtbl.find_opt tbl l) ~default:IS.empty in
  let rec iterate () =
    let changed = ref false in
    List.iter
      (fun l ->
        if reach l then begin
          let out =
            List.fold_left (fun acc s -> IS.union acc (get live_in s)) IS.empty (succ_labels f l)
          in
          let use, def = use_def l in
          let inn = IS.union use (IS.diff out def) in
          if not (IS.equal out (get live_out l) && IS.equal inn (get live_in l)) then
            changed := true;
          Hashtbl.replace live_out l out;
          Hashtbl.replace live_in l inn
        end)
      (labels f);
    if !changed then iterate ()
  in
  iterate ();
  (get live_in, get live_out)

(* --- the comparison -------------------------------------------------------- *)

let check_func ~where (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let lbl = Cfg.label cfg and idx = Cfg.index cfg in
  let lbls = List.map lbl in
  let expect what expected actual =
    if expected <> actual then
      fail "%s, function %s: %s: expected [%s], got [%s]" where f.name what
        (String.concat " " expected) (String.concat " " actual)
  in
  let n = List.length f.blocks in
  if Cfg.length cfg <> n then
    fail "%s: %s: %d blocks, Cfg.length %d" where f.name n (Cfg.length cfg);
  let reach = reachable f in
  List.iteri
    (fun i l ->
      if lbl i <> l then fail "%s: %s: block %d is %s, not %s" where f.name i (lbl i) l;
      if idx l <> i then fail "%s: %s: index of %s" where f.name l;
      expect ("succs of " ^ l) (succ_labels f l) (lbls (Cfg.succs cfg i));
      expect ("preds of " ^ l) (List.rev (pred_labels f l)) (lbls (Cfg.preds cfg i));
      if Cfg.reachable cfg i <> reach l then fail "%s: %s: reachability of %s" where f.name l)
    (labels f);
  expect "rpo" (rpo f) (lbls (Array.to_list (Cfg.rpo cfg)));
  expect "unreachable blocks"
    (List.filter (fun l -> not (reach l)) (labels f))
    (List.map (fun (b : Ir.block) -> b.label) (Cfg.unreachable_blocks cfg));
  (* dominance, every ordered pair, and the immediate dominator *)
  let dom = Dominators.compute cfg in
  let dominated = dominated f in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Dominators.dominates dom (idx a) (idx b) <> dominated a b then
            fail "%s: %s: dominates %s %s should be %b" where f.name a b (dominated a b))
        (labels f))
    (labels f);
  List.iter
    (fun b ->
      let expected =
        if not (reach b) then None
        else if b = entry f then Some b
        else
          (* the strict dominator that every other strict dominator dominates *)
          List.find_opt
            (fun a ->
              a <> b && dominated a b
              && List.for_all
                   (fun c -> c = b || (not (dominated c b)) || dominated c a)
                   (labels f))
            (labels f)
      in
      expect ("idom of " ^ b) (Option.to_list expected)
        (Option.to_list (Option.map lbl (Dominators.idom dom (idx b)))))
    (labels f);
  (* loops, in order, with label-ordered bodies *)
  let actual = Loops.compute cfg dom in
  let expected = loops f in
  if List.length actual <> List.length expected then
    fail "%s: %s: %d loops, expected %d" where f.name (List.length actual) (List.length expected);
  List.iter2
    (fun (e : loop) (a : Loops.loop) ->
      let what = "loop " ^ e.header in
      expect (what ^ " header") [ e.header ] [ lbl a.Loops.header ];
      expect (what ^ " body") e.body (lbls (Array.to_list a.Loops.body));
      expect (what ^ " latches") e.latches (lbls a.Loops.back_edges);
      if e.depth <> a.Loops.depth then fail "%s: %s: %s depth" where f.name what;
      List.iter
        (fun l ->
          if Loops.mem a (idx l) <> List.mem l e.body then
            fail "%s: %s: %s membership of %s" where f.name what l)
        (labels f);
      (* carried over to a fresh snapshot, the loop is unchanged *)
      match (Loops.rebase (Cfg.of_func f) a, List.for_all reach e.body) with
      | None, false -> ()
      | Some r, true -> expect (what ^ " rebased body") e.body (lbls (Array.to_list r.Loops.body))
      | _ -> fail "%s: %s: %s rebase" where f.name what)
    expected actual;
  (* liveness *)
  let live = Liveness.compute cfg in
  let ref_in, ref_out = liveness f in
  let ints s = List.map string_of_int s in
  List.iteri
    (fun i l ->
      expect ("live-in of " ^ l) (ints (IS.elements (ref_in l)))
        (ints (Bitset.elements (Liveness.live_in live i)));
      expect ("live-out of " ^ l) (ints (IS.elements (ref_out l)))
        (ints (Bitset.elements (Liveness.live_out live i))))
    (labels f)

(* --- hand-built corner cases ----------------------------------------------- *)

let mkfunc blocks =
  { Ir.name = "f"; params = [ 1 ]; blocks; slots = []; next_vreg = 10; next_label = 0 }

let block l insts term = { Ir.label = l; insts; term }
let br ?(v = 1) ifso ifnot =
  Ir.Br { cond = Insn.Lt; src1 = Ir.Reg v; src2 = Ir.Imm 3; ifso; ifnot }
let incr v = Ir.Bin (Ir.Add, v, Ir.Reg v, Ir.Imm 1)

let corner_cases =
  [ ( "self-loop and same-target branch"
    , mkfunc
        [ block "entry" [ Ir.Mov (2, Ir.Imm 0) ] (br "spin" "spin")
        ; block "spin" [ incr 2 ] (br ~v:2 "spin" "out")
        ; block "out" [] (Ir.Ret (Some (Ir.Reg 2))) ] )
  ; ( "unreachable block feeding a loop"
    , mkfunc
        [ block "entry" [] (Ir.Jmp "head")
        ; block "island" [ Ir.Mov (3, Ir.Imm 7) ] (Ir.Jmp "body")
        ; block "head" [] (br "body" "exit")
        ; block "body" [ incr 1; Ir.Mov (4, Ir.Reg 3) ] (br "head" "head")
        ; block "exit" [] (Ir.Ret (Some (Ir.Reg 4))) ] )
  ; ( "irreducible cycle and a dead self-loop"
    , mkfunc
        [ block "entry" [] (br "a" "b")
        ; block "a" [ incr 1 ] (br "b" "exit")
        ; block "b" [ Ir.Mov (5, Ir.Reg 1) ] (br ~v:5 "a" "exit")
        ; block "exit" [] (Ir.Ret (Some (Ir.Reg 5)))
        ; block "dead" [] (br "dead" "dead") ] )
  ; ( "nested loops sharing a latch target"
    , mkfunc
        [ block "entry" [ Ir.Mov (2, Ir.Imm 0) ] (Ir.Jmp "oh")
        ; block "oh" [] (br "ih" "exit")
        ; block "ih" [ incr 2 ] (br ~v:2 "ih" "ol")
        ; block "ol" [ incr 1 ] (br "oh" "oh")
        ; block "exit" [] (Ir.Ret (Some (Ir.Reg 2))) ] ) ]

let test_corner_cases () = List.iter (fun (where, f) -> check_func ~where f) corner_cases

(* --- snapshots of real programs -------------------------------------------- *)

let lower source =
  Elag_ir.Lower.lower_program (Elag_minic.Sema.check (Elag_minic.Parser.parse source))

(* Lower, then run the O2 passes one at a time (not to a fixpoint),
   checking every function after lowering and after each pass that
   changed it. *)
let check_program name source =
  let p = lower source in
  let check_all pass = List.iter (check_func ~where:(name ^ " after " ^ pass)) p.Ir.funcs in
  check_all "lowering";
  if Opt.Inline.run p then check_all "inline";
  let per_func pass run =
    List.iter
      (fun (f : Ir.func) ->
        let before = Fmt.str "%a" Ir.pp_func f in
        let where = name ^ " after " ^ pass in
        if run f then check_func ~where f
        else
          let after = Fmt.str "%a" Ir.pp_func f in
          if after <> before then
            Alcotest.(check string)
              (Printf.sprintf "%s: %s reported no change" where f.name)
              before after)
      p.Ir.funcs
  in
  let scalar () =
    per_func "simplify_cfg" Opt.Simplify_cfg.run;
    per_func "local_opt" Opt.Local_opt.run;
    per_func "dce" Opt.Dce.run
  in
  scalar ();
  scalar ();
  per_func "licm" (fun f -> Opt.Licm.run f);
  scalar ();
  per_func "strength_reduce" Opt.Strength_reduce.run;
  scalar ();
  per_func "addr_promote" Opt.Addr_promote.run;
  scalar ();
  per_func "unroll" (fun f -> Opt.Unroll.run ~factor:4 f);
  scalar ()

let test_minic_snapshots () =
  for seed = 0 to 39 do
    check_program (Printf.sprintf "Gen.minic %d" seed) (Elag_fuzz.Gen.minic seed)
  done

let test_workload_snapshots () =
  List.iter
    (fun (w : Elag_workloads.Workload.t) -> check_program w.name w.source)
    Elag_workloads.Suite.all

(* --- rejected CFGs --------------------------------------------------------- *)

let test_dangling_label () =
  let f = mkfunc [ block "entry" [] (br "exit" "nowhere"); block "exit" [] (Ir.Ret None) ] in
  Alcotest.check_raises "dangling successor"
    (Invalid_argument "Cfg.of_func: f: successor label nowhere names no block")
    (fun () -> ignore (Cfg.of_func f));
  let g =
    mkfunc [ block "entry" [] (Ir.Jmp "x"); block "x" [] (Ir.Ret None); block "x" [] (Ir.Ret None) ]
  in
  Alcotest.check_raises "duplicate label"
    (Invalid_argument "Cfg.of_func: f: two blocks are labelled x")
    (fun () -> ignore (Cfg.of_func g))

let suite =
  [ Alcotest.test_case "reference: corner cases" `Quick test_corner_cases
  ; Alcotest.test_case "reference: Gen.minic snapshots" `Quick test_minic_snapshots
  ; Alcotest.test_case "reference: workload snapshots" `Quick test_workload_snapshots
  ; Alcotest.test_case "cfg: dangling label rejected" `Quick test_dangling_label ]
