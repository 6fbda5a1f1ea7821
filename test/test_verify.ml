(* Verification-layer tests: the seeded PRNG, the instruction budget
   on every retire-driven entry point, the differential oracle
   (self-agreement and deliberate divergence), the fault-injection
   smoke matrix, the EPA-32 lint on both compiled and hand-broken
   programs, the structured lowering errors, and the shared CLI
   diagnostics. *)

module Insn = Elag_isa.Insn
module Reg = Elag_isa.Reg
module Layout = Elag_isa.Layout
module Program = Elag_isa.Program
module Memory = Elag_sim.Memory
module Emulator = Elag_sim.Emulator
module Config = Elag_sim.Config
module Pipeline = Elag_sim.Pipeline
module Profile = Elag_harness.Profile
module Xorshift = Elag_verify.Xorshift
module Oracle = Elag_verify.Oracle
module Fault = Elag_verify.Fault
module Lint = Elag_verify.Lint
module Diag = Elag_verify.Diag
module Lower = Elag_ir.Lower
module Ast = Elag_minic.Ast
module Typed = Elag_minic.Typed
module Structs = Elag_minic.Structs
module Engine = Elag_engine.Engine
module Verification = Elag_engine.Verification
module Suite = Elag_workloads.Suite

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One engine for the workload-backed tests, so the compiled programs
   and fault-free baselines are shared across cases. *)
let engine = lazy (Engine.create ~jobs:1 ())

let asm ?(data = []) items =
  let layout = Layout.create () in
  List.iter
    (fun (label, init) -> ignore (Layout.add layout ~label ~align:4 ~init))
    data;
  Program.assemble ~layout (Program.Label "_start" :: items)

(* --- xorshift ------------------------------------------------------------- *)

let test_xorshift_deterministic () =
  let a = Xorshift.create 42 and b = Xorshift.create 42 in
  for i = 0 to 99 do
    check (Printf.sprintf "draw %d" i) (Xorshift.next a) (Xorshift.next b)
  done;
  let c = Xorshift.create 43 in
  let differs = ref false in
  for _ = 1 to 5 do
    if Xorshift.next a <> Xorshift.next c then differs := true
  done;
  check_bool "different seeds diverge" true !differs;
  (* seed 0 must still be a usable generator *)
  let z = Xorshift.create 0 in
  let v1 = Xorshift.next z in
  let v2 = Xorshift.next z in
  check_bool "seed 0 productive" true (v1 > 0 && v2 > 0 && v1 <> v2)

let test_xorshift_bounds () =
  let t = Xorshift.create 7 in
  for _ = 1 to 1000 do
    let v = Xorshift.int t 10 in
    check_bool "in [0,10)" true (v >= 0 && v < 10);
    check_bool "raw positive" true (Xorshift.next t >= 0)
  done;
  Alcotest.check_raises "n=0 rejected" (Invalid_argument "Xorshift.int")
    (fun () -> ignore (Xorshift.int t 0))

let test_xorshift_zero_state_remapped () =
  (* the all-zero internal state is a fixed point of the xorshift
     transition; create must remap it, and the folded stream must
     never collapse to a constant *)
  let z = Xorshift.create 0 in
  let draws = List.init 16 (fun _ -> Xorshift.next z) in
  check_bool "seed 0 stream varies" true
    (List.sort_uniq compare draws |> List.length > 8);
  check_bool "seed 0 positive draws" true (List.for_all (fun v -> v >= 0) draws)

let test_xorshift_split_independent () =
  (* a child stream must be (a) deterministic and (b) unperturbed by
     further draws from the parent, so campaign sub-streams never
     depend on evaluation order *)
  let p1 = Xorshift.create 42 in
  let c1 = Xorshift.split p1 in
  let child_draws = List.init 8 (fun _ -> Xorshift.next c1) in
  let p2 = Xorshift.create 42 in
  let c2 = Xorshift.split p2 in
  for _ = 1 to 100 do
    ignore (Xorshift.next p2)
  done;
  check_bool "child stream independent of parent draws" true
    (child_draws = List.init 8 (fun _ -> Xorshift.next c2));
  let parent = Xorshift.create 42 in
  let child = Xorshift.split parent in
  let differs = ref false in
  for _ = 1 to 8 do
    if Xorshift.next parent <> Xorshift.next child then differs := true
  done;
  check_bool "child stream differs from parent stream" true !differs

(* --- instruction budget ------------------------------------------------------ *)

(* The instruction budget is the only bound on a run, so every
   retire-driven entry point must stop a one-instruction spin loop with
   [Runaway max_insns]. *)
let test_budget_bounds_every_entry_point () =
  let spin = asm [ Program.Label "spin"; Program.Insn (Insn.Jump "spin") ] in
  let max_insns = 137 in
  let cfg = Config.with_mechanism (Config.Mechanism.of_string_exn "dual-cc") Config.default in
  let baseline =
    { Fault.base_output = ""; base_hash = 0; base_retired = 0; base_cycles = 0 }
  in
  let plan =
    { Fault.name = "spin"; seed = 1; first = 1; period = Some 10
    ; target = Fault.Btb_target { slot = 0 } }
  in
  List.iter
    (fun (name, run) ->
      Alcotest.check_raises name (Emulator.Runaway max_insns) run)
    [ ("Pipeline.run", fun () -> ignore (Pipeline.run ~max_insns cfg spin))
    ; ("Profile.collect", fun () -> ignore (Profile.collect ~max_insns spin))
    ; ("Oracle.run", fun () -> ignore (Oracle.run ~max_insns cfg spin))
    ; ("Fault.baseline", fun () -> ignore (Fault.baseline ~max_insns cfg spin))
    ; ( "Fault.run_plan"
      , fun () -> ignore (Fault.run_plan ~max_insns ~baseline cfg spin plan) ) ]

(* --- fault target parsing -------------------------------------------------- *)

let test_fault_target_of_string () =
  let t s = Fault.target_of_string s in
  check_bool "table-scramble:17" true
    (t "table-scramble:17" = Some (Fault.Table_scramble { slot = 17 }));
  check_bool "table-pa default slot" true
    (t "table-pa" = Some (Fault.Table_pa { slot = 0 }));
  check_bool "bric-delay default cycles" true
    (t "bric-delay" = Some (Fault.Bric_delay { cycles = 8 }));
  check_bool "raddr-unbind" true (t "raddr-unbind" = Some Fault.Raddr_unbind);
  check_bool "btb-target:3" true
    (t "btb-target:3" = Some (Fault.Btb_target { slot = 3 }));
  check_bool "unknown rejected" true (t "nonsense" = None);
  (* a parameter must be a non-negative integer on a target that takes
     one, never a silent default or a silently ignored value *)
  List.iter
    (fun s -> check_bool (s ^ " rejected") true (t s = None))
    [ "table-scramble:xyz"; "table-scramble:-3"; "btb-target:-1"; "bric-delay:-4"
    ; "table-pa:"; "btb-scramble:1:2"; "bric-flush:3"; "raddr-unbind:0" ];
  check_bool "table-scramble:0" true
    (t "table-scramble:0" = Some (Fault.Table_scramble { slot = 0 }));
  (* every advertised name parses back *)
  List.iter
    (fun name ->
      check_bool (name ^ " parses") true (Fault.target_of_string name <> None))
    Fault.target_names

(* --- oracle --------------------------------------------------------------- *)

let print_n n =
  [ Program.Insn (Insn.Li { dst = Reg.arg_first; imm = n })
  ; Program.Insn (Insn.Syscall Insn.Print_int)
  ; Program.Insn Insn.Halt ]

let test_oracle_self_agreement () =
  let p = asm (print_n 7) in
  let r = Oracle.run Config.default p in
  check_bool "ok" true (Oracle.ok r);
  check "compared all retires" 3 r.Oracle.compared;
  check_bool "outputs match" true r.Oracle.outputs_match;
  check_bool "cycles counted" true (r.Oracle.subject_cycles > 0)

let test_oracle_detects_divergence () =
  (* Same shape, different immediate: first event already disagrees. *)
  let subject = asm (print_n 1) and reference = asm (print_n 2) in
  let r = Oracle.run ~reference Config.default subject in
  check_bool "not ok" false (Oracle.ok r);
  match r.Oracle.divergence with
  | None -> Alcotest.fail "expected a divergence"
  | Some d ->
    check "diverges at retire 0" 0 d.Oracle.div_index;
    check_bool "reference event present" true (d.Oracle.div_reference <> None);
    check_bool "outputs differ" false r.Oracle.outputs_match

let test_oracle_recent_ring_bounded () =
  (* Agree for [n] nops, then diverge: the context is exactly the last
     [min 8 n] agreeing retires (the ring holds 8), oldest first: a
     prefix shorter than the ring, and one that wraps it twice. *)
  List.iter
    (fun (n, expected) ->
      let nops = List.init n (fun _ -> Program.Insn Insn.Nop) in
      let subject = asm (nops @ print_n 1)
      and reference = asm (nops @ print_n 2) in
      let r = Oracle.run ~reference Config.default subject in
      let label what = Printf.sprintf "%d nops: %s" n what in
      match r.Oracle.divergence with
      | None -> Alcotest.fail (label "expected a divergence")
      | Some d ->
        check (label "diverges after the prefix") n d.Oracle.div_index;
        check_bool (label "context indices") true
          (List.map (fun e -> e.Oracle.ev_index) d.Oracle.div_recent = expected);
        check_bool (label "context pcs") true
          (List.map (fun e -> e.Oracle.ev_pc) d.Oracle.div_recent = expected))
    [ (5, List.init 5 Fun.id); (20, List.init 8 (fun k -> 12 + k)) ]

(* The lockstep allocates nothing per retire: after a warm-up, the
   oracle's observer riding a dual-cc pipeline (exactly as in
   [Oracle.run]) costs under one minor-heap word per retire over PGP
   Decode's first million retires.  Modelled on the pipeline's own
   allocation test in test_sim. *)
let test_oracle_allocation_free () =
  let e = Lazy.force engine in
  let p = Engine.program e (Suite.find "PGP Decode") in
  let cfg = Config.with_mechanism (Config.Mechanism.of_string_exn "dual-cc") Config.default in
  let warmup = 100_000 and total = 1_000_000 in
  let oracle = Oracle.create p in
  let pipe = Pipeline.create cfg in
  let pipe_obs = Pipeline.observer pipe and oracle_obs = Oracle.observer oracle in
  let observer p pc eff taken next_pc =
    pipe_obs p pc eff taken next_pc;
    oracle_obs p pc eff taken next_pc
  in
  let subject = Emulator.create p in
  let run_to n = try Emulator.run ~observer ~max_insns:n subject with Emulator.Runaway _ -> () in
  run_to warmup;
  let before = Gc.minor_words () in
  run_to total;
  let words = Gc.minor_words () -. before in
  let retires = Emulator.retired subject - warmup in
  check_bool "ran past warm-up" true (retires > 0);
  check_bool "still agreeing" true (Oracle.divergence oracle = None);
  let per_retire = words /. float_of_int retires in
  if per_retire >= 1. then Alcotest.failf "%.2f minor words per retire" per_retire

let test_oracle_on_workload () =
  let e = Lazy.force engine in
  let w = Suite.find "PGP Decode" in
  let p = Engine.program e w in
  let cfg =
    { Config.default with
      Config.mechanism = Config.Mechanism.of_string_exn "dual-cc" }
  in
  let r = Oracle.run cfg p in
  check_bool "workload oracle green" true (Oracle.ok r);
  check_bool "nontrivial stream" true (r.Oracle.compared > 100_000)

(* --- fault injection ------------------------------------------------------ *)

let test_fault_smoke_matrix () =
  let e = Lazy.force engine in
  let results =
    Verification.run_fault_suite ~entries:Verification.fault_smoke e
  in
  check_bool "smoke set nonempty" true (List.length results >= 7);
  List.iter
    (fun ((entry : Verification.entry), o) ->
      let name = entry.Verification.plan.Fault.name in
      check_bool (name ^ " invariants hold") true (Fault.outcome_ok o);
      check_bool (name ^ " landed") true (o.Fault.injections > 0))
    results

let test_fault_plan_deterministic () =
  let e = Lazy.force engine in
  match Verification.fault_smoke with
  | [] -> Alcotest.fail "empty smoke set"
  | (entry : Verification.entry) :: _ ->
    let w = Suite.find entry.Verification.workload in
    let cfg =
      { Config.default with
        Config.mechanism =
          Config.Mechanism.of_string_exn entry.Verification.mechanism }
    in
    let p = Engine.program e w in
    let base = Fault.baseline cfg p in
    let o1 = Fault.run_plan ~baseline:base cfg p entry.Verification.plan in
    let o2 = Fault.run_plan ~baseline:base cfg p entry.Verification.plan in
    check "injections reproduce" o1.Fault.injections o2.Fault.injections;
    check "cycles reproduce" o1.Fault.faulted_cycles o2.Fault.faulted_cycles

(* --- lint ----------------------------------------------------------------- *)

let test_lint_accepts_compiled () =
  let e = Lazy.force engine in
  List.iter
    (fun name ->
      let r = Lint.check (Engine.program e (Suite.find name)) in
      check_bool (name ^ " lint green") true (Lint.ok r);
      check_bool (name ^ " checked insns") true (r.Lint.checked > 0))
    [ "PGP Decode"; "147.vortex" ]

let rules r = List.map (fun i -> i.Lint.rule) r.Lint.issues

let test_lint_control_target () =
  (* a label at the very end resolves to code_len — outside the code *)
  let p = asm [ Program.Insn (Insn.Jump "end"); Program.Label "end" ] in
  let r = Lint.check p in
  check_bool "flagged" true (List.mem "control-target" (rules r))

let test_lint_register_invalid () =
  let p =
    asm
      [ Program.Insn (Insn.Alu { op = Insn.Add; dst = 70; src1 = 1; src2 = Insn.I 0 })
      ; Program.Insn Insn.Halt ]
  in
  check_bool "flagged" true (List.mem "register-invalid" (rules (Lint.check p)))

let test_lint_ld_e_binding () =
  let load addr =
    Program.Insn
      (Insn.Load
         { spec = Insn.Ld_e; size = Insn.Word; sign = Insn.Signed; dst = 10
         ; addr })
  in
  let absolute = asm [ load (Insn.Absolute 128); Program.Insn Insn.Halt ] in
  check_bool "absolute ld_e flagged" true
    (List.mem "ld_e-binding" (rules (Lint.check absolute)));
  let zero_base =
    asm [ load (Insn.Base_offset (Reg.zero, 8)); Program.Insn Insn.Halt ]
  in
  check_bool "r0-based ld_e flagged" true
    (List.mem "ld_e-binding" (rules (Lint.check zero_base)));
  let legal =
    asm
      [ Program.Insn (Insn.Li { dst = 10; imm = Layout.default_base })
      ; load (Insn.Base_offset (10, 0)); Program.Insn Insn.Halt ]
  in
  check_bool "legal ld_e accepted" true (Lint.ok (Lint.check legal))

let test_lint_absolute_bounds () =
  let p =
    asm
      [ Program.Insn
          (Insn.Load
             { spec = Insn.Ld_n; size = Insn.Word; sign = Insn.Signed
             ; dst = 10; addr = Insn.Absolute (Memory.default_size - 2) })
      ; Program.Insn Insn.Halt ]
  in
  check_bool "word straddling the end of memory flagged" true
    (List.mem "absolute-bounds" (rules (Lint.check p)))

let test_lint_enforce_raises () =
  let p = asm [ Program.Insn (Insn.Jump "end"); Program.Label "end" ] in
  check_bool "enforce raises Rejected" true
    (try
       Lint.enforce p;
       false
     with Lint.Rejected r -> not (Lint.ok r))

(* --- structured lowering errors ------------------------------------------- *)

let test_lower_error_structured () =
  let f =
    { Typed.name = "broken"; return_ty = Ast.Tvoid; params = []; locals = []
    ; body = [ Typed.Sbreak ] }
  in
  let prog =
    { Typed.structs = Structs.create (); globals = []; strings = []
    ; funcs = [ f ] }
  in
  check_bool "Lower.Error carries context" true
    (try
       ignore (Lower.lower_program prog);
       false
     with Lower.Error { ctx; msg } ->
       ctx = "function broken" && msg = "break outside of any loop")

(* --- CLI diagnostics ------------------------------------------------------- *)

let test_diag_describe () =
  let some e = Diag.describe e <> None in
  check_bool "runaway" true (some (Emulator.Runaway 5));
  check_bool "bad jump" true (some (Emulator.Bad_jump { pc = 9; retired = 3 }));
  check_bool "memory fault" true (some (Memory.Fault 123));
  check_bool "lint rejection" true
    (some (Lint.Rejected { Lint.checked = 1; issues = [ { Lint.pc = Some 0; rule = "r"; detail = "d" } ] }));
  check_bool "other exceptions pass through" true
    (Diag.describe (Failure "x") = None)

(* One case per diagnostic class: the guard must map the exception to
   a single-line message through the failure hook (the default hook
   prints that line and exits 2 — the ?fail injection is how the
   mapping is testable in-process). *)
let test_diag_guard_classes () =
  let lint_reject =
    Lint.Rejected
      { Lint.checked = 1
      ; issues = [ { Lint.pc = Some 0; rule = "r"; detail = "d" } ] }
  in
  List.iter
    (fun (name, exn) ->
      let captured = ref None in
      Diag.guard ~fail:(fun line -> captured := Some line) "test" (fun () ->
          raise exn);
      match !captured with
      | None -> Alcotest.fail (name ^ ": guard did not intercept")
      | Some line ->
        check_bool (name ^ ": non-empty single line") true
          (line <> "" && not (String.contains line '\n')))
    [ ("runaway", Emulator.Runaway 400_000_000)
    ; ("bad jump", Emulator.Bad_jump { pc = 7; retired = 41 })
    ; ("memory fault", Memory.Fault 0x7FFF_FFFF)
    ; ("lint rejection", lint_reject) ];
  (* unrelated exceptions must keep their identity through the guard *)
  Alcotest.check_raises "unknown exceptions re-raised" (Failure "x")
    (fun () -> Diag.guard ~fail:(fun _ -> ()) "test" (fun () -> failwith "x"))

let suite =
  [ Alcotest.test_case "xorshift: deterministic" `Quick test_xorshift_deterministic
  ; Alcotest.test_case "xorshift: bounds" `Quick test_xorshift_bounds
  ; Alcotest.test_case "xorshift: zero state remapped" `Quick
      test_xorshift_zero_state_remapped
  ; Alcotest.test_case "xorshift: split independent" `Quick
      test_xorshift_split_independent
  ; Alcotest.test_case "budget: bounds every entry point" `Quick
      test_budget_bounds_every_entry_point
  ; Alcotest.test_case "fault: target parsing" `Quick
      test_fault_target_of_string
  ; Alcotest.test_case "oracle: self agreement" `Quick test_oracle_self_agreement
  ; Alcotest.test_case "oracle: detects divergence" `Quick
      test_oracle_detects_divergence
  ; Alcotest.test_case "oracle: recent ring bounded" `Quick
      test_oracle_recent_ring_bounded
  ; Alcotest.test_case "oracle: allocation-free lockstep" `Quick
      test_oracle_allocation_free
  ; Alcotest.test_case "oracle: workload green" `Quick test_oracle_on_workload
  ; Alcotest.test_case "fault: smoke matrix" `Quick test_fault_smoke_matrix
  ; Alcotest.test_case "fault: plans deterministic" `Quick
      test_fault_plan_deterministic
  ; Alcotest.test_case "lint: compiled workloads" `Quick
      test_lint_accepts_compiled
  ; Alcotest.test_case "lint: control target" `Quick test_lint_control_target
  ; Alcotest.test_case "lint: register validity" `Quick
      test_lint_register_invalid
  ; Alcotest.test_case "lint: ld_e binding" `Quick test_lint_ld_e_binding
  ; Alcotest.test_case "lint: absolute bounds" `Quick test_lint_absolute_bounds
  ; Alcotest.test_case "lint: enforce raises" `Quick test_lint_enforce_raises
  ; Alcotest.test_case "lower: structured error" `Quick
      test_lower_error_structured
  ; Alcotest.test_case "diag: describe" `Quick test_diag_describe
  ; Alcotest.test_case "diag: guard per class" `Quick test_diag_guard_classes ]
