(* Unit and property tests for the ISA layer: 32-bit ALU semantics,
   registers, instruction metadata, data layout and program assembly. *)

module Insn = Elag_isa.Insn
module Alu = Elag_isa.Alu
module Reg = Elag_isa.Reg
module Layout = Elag_isa.Layout
module Program = Elag_isa.Program

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- ALU -------------------------------------------------------------- *)

let test_norm_range () =
  check "positive" 5 (Alu.norm 5);
  check "negative" (-5) (Alu.norm (-5));
  check "wrap positive" (-2147483648) (Alu.norm 0x80000000);
  check "wrap max" (-1) (Alu.norm 0xFFFFFFFF);
  check "int_min stays" (-2147483648) (Alu.norm (-2147483648))

let test_add_wraps () =
  check "max+1 wraps" (-2147483648) (Alu.eval Insn.Add 2147483647 1);
  check "min-1 wraps" 2147483647 (Alu.eval Insn.Sub (-2147483648) 1)

let test_mul_wraps () =
  check "big multiply wraps"
    (Alu.norm (2654435761 * 3))
    (Alu.eval Insn.Mul (Alu.norm 2654435761) 3)

let test_div_semantics () =
  check "truncates toward zero" (-2) (Alu.eval Insn.Div (-7) 3);
  check "rem sign follows dividend" (-1) (Alu.eval Insn.Rem (-7) 3);
  check "div by zero is zero" 0 (Alu.eval Insn.Div 42 0);
  check "rem by zero is zero" 0 (Alu.eval Insn.Rem 42 0)

let test_shifts () =
  check "sll" 40 (Alu.eval Insn.Sll 5 3);
  check "sll count masked" 5 (Alu.eval Insn.Sll 5 32);
  check "srl logical" 0x7FFFFFFF (Alu.eval Insn.Srl (-1) 1);
  check "sra arithmetic" (-1) (Alu.eval Insn.Sra (-1) 1);
  check "sra of -8" (-2) (Alu.eval Insn.Sra (-8) 2)

let test_compare_ops () =
  check "slt true" 1 (Alu.eval Insn.Slt (-1) 0);
  check "slt false" 0 (Alu.eval Insn.Slt 0 (-1));
  check "sle equal" 1 (Alu.eval Insn.Sle 7 7);
  check "seq" 1 (Alu.eval Insn.Seq 3 3);
  check "sne" 1 (Alu.eval Insn.Sne 3 4)

let test_eval_cond () =
  check_bool "lt signed" true (Alu.eval_cond Insn.Lt (-1) 0);
  check_bool "ge" true (Alu.eval_cond Insn.Ge 0 0);
  check_bool "gt" false (Alu.eval_cond Insn.Gt 0 0);
  check_bool "ne after wrap" false (Alu.eval_cond Insn.Ne 0xFFFFFFFF (-1))

let alu_props =
  let open QCheck in
  [ Test.make ~name:"norm is idempotent" ~count:500 (int_bound 0x3FFFFFFF)
      (fun x -> Alu.norm (Alu.norm x) = Alu.norm x)
  ; Test.make ~name:"add commutes" ~count:500 (pair int int)
      (fun (a, b) -> Alu.eval Insn.Add a b = Alu.eval Insn.Add b a)
  ; Test.make ~name:"x - x = 0" ~count:500 int
      (fun x -> Alu.eval Insn.Sub x x = 0)
  ; Test.make ~name:"and/or de-morgan on 32 bits" ~count:500 (pair int int)
      (fun (a, b) ->
        Alu.eval Insn.Xor (Alu.eval Insn.And a b) (Alu.eval Insn.Or a b)
        = Alu.eval Insn.Xor (Alu.norm a) (Alu.norm b))
  ; Test.make ~name:"result always in 32-bit range" ~count:500
      (triple (int_range 0 14) int int)
      (fun (op_idx, a, b) ->
        let ops =
          [| Insn.Add; Insn.Sub; Insn.Mul; Insn.Div; Insn.Rem; Insn.And
           ; Insn.Or; Insn.Xor; Insn.Sll; Insn.Srl; Insn.Sra; Insn.Slt
           ; Insn.Sle; Insn.Seq; Insn.Sne |]
        in
        let r = Alu.eval ops.(op_idx) a b in
        r >= -2147483648 && r <= 2147483647) ]

(* --- registers --------------------------------------------------------- *)

let test_register_roles () =
  check "count" 64 Reg.count;
  check_bool "zero valid" true (Reg.is_valid Reg.zero);
  check_bool "out of range" false (Reg.is_valid 64);
  Alcotest.(check string) "zero name" "zero" (Reg.name Reg.zero);
  Alcotest.(check string) "sp name" "sp" (Reg.name Reg.sp);
  check_bool "scratches distinct" true
    (Reg.scratch0 <> Reg.scratch1 && Reg.scratch1 <> Reg.scratch2)

let test_register_ranges_disjoint () =
  let ranges =
    [ (Reg.arg_first, Reg.arg_last)
    ; (Reg.tmp_first, Reg.tmp_last)
    ; (Reg.saved_first, Reg.saved_last) ]
  in
  List.iteri
    (fun i (lo1, hi1) ->
      List.iteri
        (fun j (lo2, hi2) ->
          if i < j then check_bool "ranges disjoint" true (hi1 < lo2 || hi2 < lo1))
        ranges)
    ranges;
  List.iter
    (fun s ->
      List.iter
        (fun (lo, hi) -> check_bool "scratch outside pools" true (s < lo || s > hi))
        ranges)
    [ Reg.scratch0; Reg.scratch1; Reg.scratch2 ]

(* --- instruction metadata ---------------------------------------------- *)

let test_uses_defs () =
  let load =
    Insn.Load
      { spec = Insn.Ld_n; size = Insn.Word; sign = Insn.Signed; dst = 5
      ; addr = Insn.Base_index (6, 7) }
  in
  Alcotest.(check (list int)) "load uses" [ 6; 7 ] (Insn.uses load);
  Alcotest.(check (list int)) "load defs" [ 5 ] (Insn.defs load);
  let store = Insn.Store { size = Insn.Byte; src = 8; addr = Insn.Base_offset (9, 4) } in
  Alcotest.(check (list int)) "store uses" [ 8; 9 ] (Insn.uses store);
  Alcotest.(check (list int)) "store defs" [] (Insn.defs store);
  let alu = Insn.Alu { op = Insn.Add; dst = 1; src1 = 0; src2 = Insn.R 0 } in
  Alcotest.(check (list int)) "zero reg never a use" [] (Insn.uses alu)

let test_zero_def_dropped () =
  let li = Insn.Li { dst = Reg.zero; imm = 42 } in
  Alcotest.(check (list int)) "write to zero dropped" [] (Insn.defs li)

let test_load_spec_helpers () =
  let load =
    Insn.Load
      { spec = Insn.Ld_n; size = Insn.Word; sign = Insn.Signed; dst = 1
      ; addr = Insn.Absolute 0x1000 }
  in
  Alcotest.(check bool) "is_load" true (Insn.is_load load);
  (match Insn.load_spec (Insn.with_load_spec Insn.Ld_p load) with
  | Some Insn.Ld_p -> ()
  | _ -> Alcotest.fail "with_load_spec did not apply");
  check_bool "non-load untouched" true
    (Insn.with_load_spec Insn.Ld_e Insn.Nop = Insn.Nop)

(* --- layout ------------------------------------------------------------- *)

let test_layout_alignment () =
  let l = Layout.create () in
  let a = Layout.add l ~label:"a" ~align:1 ~init:(Layout.Bytes "xyz") in
  let b = Layout.add l ~label:"b" ~align:4 ~init:(Layout.Words [ 1; 2 ]) in
  check "first at base" Layout.default_base a;
  check "aligned up" 0 (b mod 4);
  check_bool "no overlap" true (b >= a + 3);
  check "lookup" b (Layout.address l "b");
  check_bool "heap after data" true (Layout.heap_base l >= b + 8);
  check "heap aligned" 0 (Layout.heap_base l mod 16)

let test_layout_duplicate_rejected () =
  let l = Layout.create () in
  ignore (Layout.add l ~label:"x" ~align:4 ~init:(Layout.Zeros 4));
  Alcotest.check_raises "duplicate label" (Invalid_argument "Layout.add: duplicate label x")
    (fun () -> ignore (Layout.add l ~label:"x" ~align:4 ~init:(Layout.Zeros 4)))

let test_layout_image_little_endian () =
  let l = Layout.create () in
  ignore (Layout.add l ~label:"w" ~align:4 ~init:(Layout.Words [ 0x11223344 ]));
  match Layout.image l with
  | [ (_, bytes) ] ->
    Alcotest.(check string) "little endian" "\x44\x33\x22\x11" bytes
  | _ -> Alcotest.fail "expected one image entry"

(* --- program assembly ---------------------------------------------------- *)

let test_assemble_resolves_targets () =
  let layout = Layout.create () in
  let items =
    [ Program.Label "_start"
    ; Program.Insn (Insn.Jump "end")
    ; Program.Label "mid"
    ; Program.Insn Insn.Nop
    ; Program.Label "end"
    ; Program.Insn Insn.Halt ]
  in
  let p = Program.assemble ~layout items in
  check "length" 3 (Program.length p);
  check "entry" 0 (Program.entry p);
  check "jump target" 2 (Program.target p 0);
  check "no target" (-1) (Program.target p 1)

let test_assemble_unknown_label () =
  let layout = Layout.create () in
  let items = [ Program.Label "_start"; Program.Insn (Insn.Jump "nowhere") ] in
  Alcotest.check_raises "unknown label" (Program.Unknown_label "nowhere") (fun () ->
      ignore (Program.assemble ~layout items))

let test_static_loads_and_map () =
  let layout = Layout.create () in
  let load spec =
    Insn.Load
      { spec; size = Insn.Word; sign = Insn.Signed; dst = 1
      ; addr = Insn.Absolute 0x1000 }
  in
  let items =
    [ Program.Label "_start"
    ; Program.Insn (load Insn.Ld_n)
    ; Program.Insn Insn.Nop
    ; Program.Insn (load Insn.Ld_n)
    ; Program.Insn Insn.Halt ]
  in
  let p = Program.assemble ~layout items in
  check "two static loads" 2 (List.length (Program.static_loads p));
  let p' =
    Program.map_insns
      (fun pc insn -> if pc = 0 then Insn.with_load_spec Insn.Ld_p insn else insn)
      p
  in
  (match Insn.load_spec (Program.insn p' 0) with
  | Some Insn.Ld_p -> ()
  | _ -> Alcotest.fail "map_insns did not rewrite");
  (* original program unchanged *)
  match Insn.load_spec (Program.insn p 0) with
  | Some Insn.Ld_n -> ()
  | _ -> Alcotest.fail "map_insns mutated the original"

(* The static tables against the instructions they were decoded from:
   every pc's sources, destination, issue class, access width and base
   register, and the dense load index (ascending pcs, one entry per
   load, each with its specifier). *)
let check_tables label p =
  let unpack s =
    let rec go s = if s = 0 then [] else (s land 63) :: go (s lsr 6) in
    go s
  in
  let fail what pc = Alcotest.failf "%s: pc %d: %s" label pc what in
  for pc = 0 to Program.length p - 1 do
    let insn = Program.insn p pc in
    if unpack (Program.sources p pc) <> Insn.uses insn then fail "sources" pc;
    let dest = match Insn.defs insn with [ d ] -> d | _ -> -1 in
    if Program.dest p pc <> dest then fail "dest" pc;
    let op_ok =
      match (Program.op p pc, insn) with
      | Program.Multiply, Insn.Alu { op = Insn.Mul; _ }
      | Program.Divide, Insn.Alu { op = Insn.Div | Insn.Rem; _ }
      | Program.Load, Insn.Load _
      | Program.Store, Insn.Store _
      | Program.Predicted, (Insn.Branch _ | Insn.Jr _ | Insn.Jalr _)
      | Program.Direct, (Insn.Jump _ | Insn.Jal _)
      | Program.Single_cycle, (Insn.Li _ | Insn.Syscall _ | Insn.Nop | Insn.Halt) -> true
      | Program.Single_cycle, Insn.Alu { op; _ } ->
        not (List.mem op [ Insn.Mul; Insn.Div; Insn.Rem ])
      | _ -> false
    in
    if not op_ok then fail "op" pc;
    let width, base =
      match insn with
      | Insn.Load { size; addr; _ } | Insn.Store { size; addr; _ } ->
        ( Insn.size_bytes size
        , match addr with Insn.Base_offset (b, _) -> b | _ -> -1 )
      | _ -> (0, -1)
    in
    if Program.width p pc <> width then fail "width" pc;
    if Program.base p pc <> base then fail "base" pc;
    let k = Program.load_index p pc in
    if Insn.is_load insn then begin
      if k < 0 || Program.load_pc p k <> pc then fail "load index" pc;
      if Insn.load_spec insn <> Some (Program.load_spec p k) then fail "load spec" pc
    end
    else if k <> -1 then fail "load index of a non-load" pc
  done;
  let pcs = List.init (Program.load_count p) (Program.load_pc p) in
  check_bool (label ^ ": load pcs ascending") true (List.sort_uniq compare pcs = pcs);
  check_bool (label ^ ": static loads")
    true (List.map fst (Program.static_loads p) = pcs)

let test_program_tables () =
  let module Compile = Elag_harness.Compile in
  let compiled (w : Elag_workloads.Workload.t) classification =
    Compile.compile
      ~options:{ Compile.default_options with classification }
      w.Elag_workloads.Workload.source
  in
  let programs =
    List.concat_map
      (fun (w : Elag_workloads.Workload.t) ->
        [ (w.name, compiled w Compile.Heuristics)
        ; (w.name ^ " -nc", compiled w Compile.No_classification) ])
      Elag_workloads.Suite.all
    @ List.init 40 (fun seed ->
          (Printf.sprintf "gen %d" seed, (Elag_fuzz.Gen.program seed).Elag_fuzz.Gen.program))
  in
  List.iter
    (fun (label, p) ->
      check_tables label p;
      (* [map_insns] rebuilds the tables from the rewritten code *)
      check_tables (label ^ " as ld_e") (Program.map_insns (fun _ -> Insn.with_load_spec Insn.Ld_e) p))
    programs

let suite =
  [ Alcotest.test_case "alu: norm range" `Quick test_norm_range
  ; Alcotest.test_case "alu: add wraps" `Quick test_add_wraps
  ; Alcotest.test_case "alu: mul wraps" `Quick test_mul_wraps
  ; Alcotest.test_case "alu: division" `Quick test_div_semantics
  ; Alcotest.test_case "alu: shifts" `Quick test_shifts
  ; Alcotest.test_case "alu: compares" `Quick test_compare_ops
  ; Alcotest.test_case "alu: conditions" `Quick test_eval_cond
  ; Alcotest.test_case "reg: roles" `Quick test_register_roles
  ; Alcotest.test_case "reg: pools disjoint" `Quick test_register_ranges_disjoint
  ; Alcotest.test_case "insn: uses/defs" `Quick test_uses_defs
  ; Alcotest.test_case "insn: zero def dropped" `Quick test_zero_def_dropped
  ; Alcotest.test_case "insn: load spec helpers" `Quick test_load_spec_helpers
  ; Alcotest.test_case "layout: alignment" `Quick test_layout_alignment
  ; Alcotest.test_case "layout: duplicates" `Quick test_layout_duplicate_rejected
  ; Alcotest.test_case "layout: little endian" `Quick test_layout_image_little_endian
  ; Alcotest.test_case "program: assembly" `Quick test_assemble_resolves_targets
  ; Alcotest.test_case "program: unknown label" `Quick test_assemble_unknown_label
  ; Alcotest.test_case "program: static loads" `Quick test_static_loads_and_map
  ; Alcotest.test_case "program: tables agree with the instructions" `Quick
      test_program_tables ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) alu_props
