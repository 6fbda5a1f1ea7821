(* Cross-cutting property and fuzz tests: the front end never crashes
   on arbitrary input, hardware models obey their invariants, and the
   timing model respects structural bounds on real workloads. *)

module Insn = Elag_isa.Insn
module Alu = Elag_isa.Alu
module Lexer = Elag_minic.Lexer
module Parser = Elag_minic.Parser
module Sema = Elag_minic.Sema
module Cache = Elag_sim.Cache
module Memory = Elag_sim.Memory
module Config = Elag_sim.Config
module Pipeline = Elag_sim.Pipeline
module Compile = Elag_harness.Compile
module Suite = Elag_workloads.Suite
module Workload = Elag_workloads.Workload

let check_bool = Alcotest.(check bool)

(* --- front-end fuzz -------------------------------------------------- *)

(* Arbitrary strings over a C-ish alphabet: the lexer either tokenizes
   or raises its error; it never crashes or loops. *)
let lexer_never_crashes =
  let alphabet = "abz019 \n\t(){}[];,.+-*/%<>=!&|^~'\"\\#@?:" in
  let gen =
    QCheck.Gen.(
      string_size ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1)))
        (int_bound 200))
  in
  QCheck.Test.make ~name:"lexer total on arbitrary input" ~count:1000
    (QCheck.make gen)
    (fun s ->
      match Lexer.tokenize s with
      | _ -> true
      | exception Lexer.Error _ -> true)

(* The parser is total over arbitrary strings too (wrapping lexical
   errors in its own exception). *)
let parser_never_crashes =
  let alphabet = "intcharvoidstructifwhilemain(){}[];,+-*=<> 09ab" in
  let gen =
    QCheck.Gen.(
      string_size ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1)))
        (int_bound 150))
  in
  QCheck.Test.make ~name:"parser total on arbitrary input" ~count:1000
    (QCheck.make gen)
    (fun s ->
      match Parser.parse s with
      | _ -> true
      | exception Parser.Error _ -> true)

(* Sema is total over whatever parses. *)
let sema_never_crashes =
  let fragments =
    [| "int g;"; "char c;"; "struct s { int a; };"; "int f(int x) { return x; }"
     ; "int main() { return 0; }"; "int main() { int x; return *&x; }"
     ; "int main() { break; }"; "int main() { return y; }"
     ; "void v() { }"; "int a[4];"; "int main() { return f(1,2,3); }" |]
  in
  let gen =
    QCheck.Gen.(
      map (String.concat " ")
        (list_size (int_bound 6) (map (Array.get fragments) (int_bound (Array.length fragments - 1)))))
  in
  QCheck.Test.make ~name:"sema total on parsed input" ~count:500 (QCheck.make gen)
    (fun s ->
      match Sema.check (Parser.parse s) with
      | _ -> true
      | exception Parser.Error _ -> true
      | exception Sema.Error _ -> true)

(* --- hardware-model invariants ---------------------------------------- *)

let cache_invariants =
  QCheck.Test.make ~name:"cache: access implies probe hit; probe is pure" ~count:500
    QCheck.(make Gen.(list_size (int_bound 64) (int_bound 1_000_000)))
    (fun addrs ->
      let c = Cache.create ~size_bytes:1024 ~line_bytes:64 () in
      List.for_all
        (fun addr ->
          ignore (Cache.access c addr);
          let p1 = Cache.probe c addr in
          let p2 = Cache.probe c addr in
          p1 && p1 = p2)
        addrs)

let memory_roundtrip =
  QCheck.Test.make ~name:"memory: word roundtrip through bytes" ~count:500
    QCheck.(make Gen.(pair (int_bound 4000) int))
    (fun (addr, v) ->
      let m = Memory.create ~size:8192 () in
      Memory.write_word m addr v;
      let w = Memory.read_word m addr in
      let b0 = Memory.read_byte_u m addr
      and b1 = Memory.read_byte_u m (addr + 1)
      and b2 = Memory.read_byte_u m (addr + 2)
      and b3 = Memory.read_byte_u m (addr + 3) in
      w = Alu.norm v
      && Alu.norm (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)) = w)

(* Demand-paged memory against a flat [Bytes] reference: random byte,
   half and word reads and writes on a size that is not a page
   multiple must return the same values and raise [Fault] at the same
   addresses.  Addresses cluster where paging could go wrong: across
   4 KiB page boundaries (unaligned accesses straddle them), at the
   last valid address, just past the end, below zero, and on pages
   never written. *)
module Flat = struct
  let check m addr n = if addr < 0 || addr + n > Bytes.length m then raise (Memory.Fault addr)
  let get m a = Char.code (Bytes.get m a)

  let read m width signed addr =
    check m addr width;
    let v = ref 0 in
    for i = width - 1 downto 0 do
      v := (!v lsl 8) lor get m (addr + i)
    done;
    let bits = 8 * width in
    if signed && !v lsr (bits - 1) = 1 then !v - (1 lsl bits) else !v

  let write m width addr v =
    check m addr width;
    for i = 0 to width - 1 do
      Bytes.set m (addr + i) (Char.chr ((v asr (8 * i)) land 0xff))
    done
end

let paged_memory_matches_flat =
  let page = 4096 in
  let size = (3 * page) + 1234 in
  let addr =
    QCheck.Gen.(
      frequency
        [ (4, map2 (fun k d -> (k * page) + d) (int_range 1 3) (int_range (-4) 3))
        ; (2, map (fun d -> size + d) (int_range (-5) 1))
        ; (1, int_range (-5) 0)
        ; (3, int_range 0 (size - 1)) ])
  in
  let op =
    QCheck.Gen.(
      quad bool (oneofl [ 1; 2; 4 ]) bool (pair addr (int_range (-0x8000_0000) 0xFFFF_FFFF)))
  in
  let print (write, width, signed, (a, v)) =
    Printf.sprintf "%s%d%s @%d %d" (if write then "w" else "r") width
      (if signed then "s" else "u") a v
  in
  (* two lives: after the first sequence, [reset] must leave a memory
     that matches a fresh flat reference through the second sequence
     and, byte for byte, at its end, so nothing the first life wrote
     leaks into the second *)
  let ops = QCheck.Gen.(list_size (int_range 1 60) op) in
  QCheck.Test.make ~name:"memory: paged matches flat reference" ~count:300
    (QCheck.make ~print:QCheck.Print.(pair (list print) (list print)) QCheck.Gen.(pair ops ops))
    (fun (first, second) ->
      let m = Memory.create ~size () in
      let outcome f = try Ok (f ()) with Memory.Fault a -> Error a in
      let step flat (write, width, signed, (a, v)) =
        if write then
          let paged () =
            match width with
            | 1 -> Memory.write_byte m a v
            | 2 -> Memory.write_half m a v
            | _ -> Memory.write_word m a v
          in
          outcome paged = outcome (fun () -> Flat.write flat width a v)
        else
          let paged () =
            match (width, signed) with
            | 1, false -> Memory.read_byte_u m a
            | 1, true -> Memory.read_byte_s m a
            | 2, false -> Memory.read_half_u m a
            | 2, true -> Memory.read_half_s m a
            | _ -> Memory.read_word m a
          in
          (* words are signed 32-bit whatever [signed] says *)
          outcome paged = outcome (fun () -> Flat.read flat width (signed || width = 4) a)
      in
      let life ops =
        let flat = Bytes.make size '\000' in
        let rec same a =
          a = size || (Memory.read_byte_u m a = Char.code (Bytes.get flat a) && same (a + 1))
        in
        List.for_all (step flat) ops && same 0
      in
      let first_ok = life first in
      Memory.reset m;
      first_ok && life second)

let alu_compare_consistency =
  QCheck.Test.make ~name:"alu: set-compare ops agree with eval_cond" ~count:500
    QCheck.(make Gen.(pair int int))
    (fun (a, b) ->
      (Alu.eval Insn.Slt a b = 1) = Alu.eval_cond Insn.Lt a b
      && (Alu.eval Insn.Sle a b = 1) = Alu.eval_cond Insn.Le a b
      && (Alu.eval Insn.Seq a b = 1) = Alu.eval_cond Insn.Eq a b
      && (Alu.eval Insn.Sne a b = 1) = Alu.eval_cond Insn.Ne a b)

(* --- timing-model structural bounds ------------------------------------ *)

let mechanisms =
  [ Config.No_early
  ; Config.Table_only { entries = 64; compiler_filtered = true }
  ; Config.Calc_only { bric_entries = 8 }
  ; Config.Dual { table_entries = 256; selection = Config.Compiler_directed }
  ; Config.Dual { table_entries = 256; selection = Config.Hardware_selected } ]

let test_pipeline_bounds () =
  let w = Suite.find "PGP Encode" in
  let program = Compile.compile w.Workload.source in
  List.iter
    (fun mech ->
      let cfg = Config.with_mechanism mech Config.default in
      let stats, output = Pipeline.simulate cfg program in
      let name = Config.mechanism_name mech in
      (* the machine cannot beat its issue width *)
      check_bool (name ^ ": cycles >= insns/width") true
        (stats.Pipeline.cycles * cfg.Config.issue_width >= stats.Pipeline.instructions);
      (* memory operations cannot beat the port count *)
      check_bool (name ^ ": cycles >= memops/ports") true
        (stats.Pipeline.cycles * cfg.Config.mem_ports
        >= stats.Pipeline.loads + stats.Pipeline.stores);
      (* successes never exceed attempts *)
      check_bool (name ^ ": table successes bounded") true
        (stats.Pipeline.table_successes <= stats.Pipeline.table_attempts);
      check_bool (name ^ ": calc successes bounded") true
        (stats.Pipeline.calc_successes <= stats.Pipeline.calc_attempts);
      (* load class counts decompose the loads *)
      check_bool (name ^ ": load classes partition") true
        (stats.Pipeline.loads_n + stats.Pipeline.loads_p + stats.Pipeline.loads_e
        = stats.Pipeline.loads);
      (* architectural behaviour never depends on the timing config *)
      (match w.Workload.expected_output with
      | Some expected ->
        Alcotest.(check string) (name ^ ": output invariant") expected output
      | None -> ()))
    mechanisms

let test_compilation_deterministic () =
  let w = Suite.find "RASTA" in
  let p1 = Compile.compile w.Workload.source in
  let p2 = Compile.compile w.Workload.source in
  Alcotest.(check int) "same code size" (Elag_isa.Program.length p1)
    (Elag_isa.Program.length p2);
  let out p = Elag_sim.Emulator.output (Elag_sim.Emulator.run_program p) in
  Alcotest.(check string) "same behaviour" (out p1) (out p2)

let suite =
  [ Alcotest.test_case "pipeline bounds" `Quick test_pipeline_bounds
  ; Alcotest.test_case "deterministic compilation" `Quick test_compilation_deterministic ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ lexer_never_crashes
      ; parser_never_crashes
      ; sema_never_crashes
      ; cache_invariants
      ; memory_roundtrip
      ; paged_memory_matches_flat
      ; alu_compare_consistency ]
