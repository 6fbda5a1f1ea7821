(* Seeded random program generation.

   Two generators feed the differential campaigns:

   - [program]: typed construction of EPA-32 programs that are
     lint-clean *and terminating by construction*.  Registers are
     partitioned into classes (arena pointers with statically known
     values, small known index constants, free data registers), every
     memory access is derived from the known pointer model so it lands
     inside a bounded arena, control flow is forward-only except for
     counted-loop templates whose trip counts are fixed at generation
     time, and the generator tracks an exact upper bound on retired
     instructions so every run gets a tight budget.

   - [minic]: random MiniC sources from a bounded statement grammar
     (global arrays, masked index expressions, counted for-loops), fed
     through the real front-end + optimizer so the whole compilation
     pipeline sits inside the fuzzing loop, not just the simulator.

   Everything draws from a per-call {!Elag_verify.Xorshift} stream, so
   a (seed, params) pair regenerates the identical program forever —
   the property the corpus replay format relies on. *)

module Insn = Elag_isa.Insn
module Reg = Elag_isa.Reg
module Program = Elag_isa.Program
module Layout = Elag_isa.Layout
module Xorshift = Elag_verify.Xorshift
module Lint = Elag_verify.Lint
module Json = Elag_telemetry.Json

type weights =
  { alu : int
  ; ld_n : int
  ; ld_p : int
  ; ld_e : int
  ; store : int
  ; branch : int
  ; loop : int
  ; print : int }

let default_weights =
  { alu = 8; ld_n = 5; ld_p = 5; ld_e = 5; store = 4; branch = 3; loop = 3
  ; print = 2 }

type params =
  { segments : int
  ; segment_ops : int
  ; arena_words : int
  ; max_trip : int
  ; weights : weights }

let default_params =
  { segments = 12
  ; segment_ops = 5
  ; arena_words = 64
  ; max_trip = 12
  ; weights = default_weights }

type t =
  { seed : int
  ; params : params
  ; arena : int list
  ; items : Program.item list
  ; program : Program.t
  ; budget : int }

(* Register classes.  The generator never touches registers outside
   these (plus [arg_first] for print staging), so the calling
   convention's reserved registers stay untouched and every operand is
   trivially valid under the lint. *)
let addr_regs = [| 13; 14; 15; 16 |]
let idx_regs = [| 17; 18; 19 |]
let data_regs = [| 20; 21; 22; 23; 24; 25; 26; 27 |]
let cnt_reg = 28

type state =
  { rng : Xorshift.t
  ; p : params
  ; arena_base : int
  ; mutable rev : Program.item list
  ; mutable fresh : int
  ; mutable bound : int  (* upper bound on retired instructions *)
  ; mutable scale : int  (* enclosing loop trip product (1 outside) *)
  ; addr : int array  (* known arena word index per addr register *)
  ; idx : int array  (* known constant per index register *) }

let emit st insn =
  st.rev <- Program.Insn insn :: st.rev;
  st.bound <- st.bound + st.scale

let emit_label st l = st.rev <- Program.Label l :: st.rev

let fresh_label st =
  let l = Printf.sprintf "L%d" st.fresh in
  st.fresh <- st.fresh + 1;
  l

let pick rng arr = arr.(Xorshift.int rng (Array.length arr))

let data st = pick st.rng data_regs

let set_addr st ai w =
  emit st (Insn.Li { dst = addr_regs.(ai); imm = st.arena_base + (4 * w) });
  st.addr.(ai) <- w

let set_idx st ii v =
  emit st (Insn.Li { dst = idx_regs.(ii); imm = v });
  st.idx.(ii) <- v

let alu_ops =
  [| Insn.Add; Insn.Sub; Insn.Mul; Insn.Div; Insn.Rem; Insn.And; Insn.Or
   ; Insn.Xor; Insn.Sll; Insn.Srl; Insn.Sra; Insn.Slt; Insn.Sle; Insn.Seq
   ; Insn.Sne |]

let sizes = [| Insn.Byte; Insn.Half; Insn.Word |]
let signs = [| Insn.Signed; Insn.Unsigned |]
let conds = [| Insn.Eq; Insn.Ne; Insn.Lt; Insn.Le; Insn.Gt; Insn.Ge |]

let gen_alu st =
  let op = pick st.rng alu_ops in
  let src2 =
    if Xorshift.bool st.rng then Insn.R (data st)
    else Insn.I (Xorshift.int st.rng 256 - 128)
  in
  emit st (Insn.Alu { op; dst = data st; src1 = data st; src2 })

(* A word slot inside the arena, addressed through the static pointer
   model: the effective address is provably in bounds whatever the
   run-time data values are. *)
let gen_addr_mode st ~ld_e =
  let w = Xorshift.int st.rng st.p.arena_words in
  if ld_e then begin
    (* ld_e must be register+offset with a non-zero base (lint rule) *)
    let ai = Xorshift.int st.rng (Array.length addr_regs) in
    Insn.Base_offset (addr_regs.(ai), 4 * (w - st.addr.(ai)))
  end
  else
    match Xorshift.int st.rng 3 with
    | 0 ->
      let ai = Xorshift.int st.rng (Array.length addr_regs) in
      Insn.Base_offset (addr_regs.(ai), 4 * (w - st.addr.(ai)))
    | 1 ->
      let ai = Xorshift.int st.rng (Array.length addr_regs) in
      let ii = Xorshift.int st.rng (Array.length idx_regs) in
      let need = 4 * (w - st.addr.(ai)) in
      if st.idx.(ii) <> need then set_idx st ii need;
      Insn.Base_index (addr_regs.(ai), idx_regs.(ii))
    | _ -> Insn.Absolute (st.arena_base + (4 * w))

let gen_load st spec =
  let addr = gen_addr_mode st ~ld_e:(spec = Insn.Ld_e) in
  emit st
    (Insn.Load
       { spec
       ; size = pick st.rng sizes
       ; sign = pick st.rng signs
       ; dst = data st
       ; addr })

let gen_store st =
  let addr = gen_addr_mode st ~ld_e:false in
  emit st (Insn.Store { size = pick st.rng sizes; src = data st; addr })

let gen_print st =
  emit st
    (Insn.Alu { op = Insn.Add; dst = Reg.arg_first; src1 = data st; src2 = Insn.I 0 });
  emit st (Insn.Syscall Insn.Print_int)

(* Forward skip: both outcomes of the branch land on code that exists,
   and the skipped run is still counted toward the bound. *)
let rec gen_branch_skip st =
  let l = fresh_label st in
  let src2 =
    if Xorshift.bool st.rng then Insn.R (data st)
    else Insn.I (Xorshift.int st.rng 16)
  in
  emit st
    (Insn.Branch { cond = pick st.rng conds; src1 = data st; src2; target = l });
  let n = 1 + Xorshift.int st.rng 3 in
  for _ = 1 to n do
    gen_straight st
  done;
  emit_label st l

and gen_straight st =
  (* straight-line op mix (no loops, no further nesting decisions) *)
  let w = st.p.weights in
  let total = w.alu + w.ld_n + w.ld_p + w.ld_e + w.store + w.print in
  let r = Xorshift.int st.rng (max 1 total) in
  if r < w.alu then gen_alu st
  else if r < w.alu + w.ld_n then gen_load st Insn.Ld_n
  else if r < w.alu + w.ld_n + w.ld_p then gen_load st Insn.Ld_p
  else if r < w.alu + w.ld_n + w.ld_p + w.ld_e then gen_load st Insn.Ld_e
  else if r < w.alu + w.ld_n + w.ld_p + w.ld_e + w.store then gen_store st
  else gen_print st

(* Counted-loop template: a striding pointer walks the arena while a
   dedicated counter runs down to zero, so the loop terminates after
   exactly [trip] iterations and every access through the striding
   pointer stays inside the arena by the span inequality below.  This
   is the pattern that exercises the ld_p table state machine
   (Learning -> Predicting transitions on a constant stride) and the
   ld_e R_addr binding on a loop-carried base. *)
let gen_loop st =
  let trip = 1 + Xorshift.int st.rng st.p.max_trip in
  let stride_w = Xorshift.int st.rng 3 in
  let off_w = Xorshift.int st.rng 3 in
  let span = off_w + (stride_w * (trip - 1)) in
  if span >= st.p.arena_words then gen_straight st
  else begin
    let start_w = Xorshift.int st.rng (st.p.arena_words - span) in
    let ai = Xorshift.int st.rng (Array.length addr_regs) in
    set_addr st ai start_w;
    emit st (Insn.Li { dst = cnt_reg; imm = trip });
    let l = fresh_label st in
    emit_label st l;
    st.scale <- trip;
    let body = 1 + Xorshift.int st.rng 3 in
    for _ = 1 to body do
      (* loads through the striding pointer use the fixed offset (the
         model only knows iteration 0's value); everything else uses
         the straight-line mix *)
      if Xorshift.bool st.rng then
        let spec = if Xorshift.bool st.rng then Insn.Ld_p else Insn.Ld_e in
        emit st
          (Insn.Load
             { spec
             ; size = Insn.Word
             ; sign = Insn.Signed
             ; dst = data st
             ; addr = Insn.Base_offset (addr_regs.(ai), 4 * off_w) })
      else gen_straight st
    done;
    emit st
      (Insn.Alu
         { op = Insn.Add
         ; dst = addr_regs.(ai)
         ; src1 = addr_regs.(ai)
         ; src2 = Insn.I (4 * stride_w) });
    emit st
      (Insn.Alu { op = Insn.Sub; dst = cnt_reg; src1 = cnt_reg; src2 = Insn.I 1 });
    emit st (Insn.Branch { cond = Insn.Ne; src1 = cnt_reg; src2 = Insn.I 0; target = l });
    st.scale <- 1;
    st.addr.(ai) <- start_w + (stride_w * trip)
  end

let gen_segment st =
  let w = st.p.weights in
  let total = w.branch + w.loop + 1 in
  let r = Xorshift.int st.rng total in
  if r < w.branch then gen_branch_skip st
  else if r < w.branch + w.loop then gen_loop st
  else
    let n = 1 + Xorshift.int st.rng st.p.segment_ops in
    for _ = 1 to n do
      gen_straight st
    done

let make_layout ~arena =
  let layout = Layout.create () in
  ignore (Layout.add layout ~label:"arena" ~align:4 ~init:(Layout.Words arena));
  layout

let reassemble t items =
  Program.assemble ~layout:(make_layout ~arena:t.arena) items

let program ?(params = default_params) seed =
  if params.arena_words <= 0 || params.segments <= 0 then
    invalid_arg "Gen.program";
  let rng = Xorshift.create seed in
  let arena_rng = Xorshift.split rng in
  let arena =
    List.init params.arena_words (fun _ -> Xorshift.int arena_rng 65536 - 32768)
  in
  let layout = make_layout ~arena in
  let st =
    { rng
    ; p = params
    ; arena_base = Layout.address layout "arena"
    ; rev = []
    ; fresh = 0
    ; bound = 0
    ; scale = 1
    ; addr = Array.make (Array.length addr_regs) 0
    ; idx = Array.make (Array.length idx_regs) 0 }
  in
  emit_label st "_start";
  (* establish the pointer/index models before any access uses them *)
  Array.iteri (fun ai _ -> set_addr st ai (Xorshift.int rng params.arena_words))
    addr_regs;
  Array.iteri (fun ii _ -> set_idx st ii (4 * Xorshift.int rng params.arena_words))
    idx_regs;
  for _ = 1 to params.segments do
    gen_segment st
  done;
  gen_print st;
  emit st Insn.Halt;
  let items = List.rev st.rev in
  let program = Program.assemble ~layout items in
  (* lint-clean is a generator invariant, not a hope: a construction
     bug here must fail loudly, not leak malformed programs into the
     campaign where they would read as simulator findings *)
  Lint.enforce program;
  { seed; params; arena; items; program; budget = st.bound + 64 }

let listing t = Fmt.str "%a" Program.pp t.program

(* --- random MiniC ------------------------------------------------------ *)

(* Bounded statement grammar over global int arrays.  Index
   expressions are masked before the modulo, so every access is in
   bounds for any run-time value; loop bounds are literal constants,
   so termination is syntactic. *)
let minic seed =
  let rng = Xorshift.create (seed lxor 0x5eed) in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let narrays = 1 + Xorshift.int rng 3 in
  let sizes = Array.init narrays (fun _ -> 16 + (8 * Xorshift.int rng 7)) in
  Array.iteri (fun i n -> pr "int A%d[%d];\n" i n) sizes;
  pr "int main() {\n  int i;\n  int j;\n  int s;\n  s = %d;\n"
    (Xorshift.int rng 1000);
  Array.iteri
    (fun a n ->
      pr "  for (i = 0; i < %d; i++) { A%d[i] = (i * %d + %d) %% %d; }\n" n a
        (1 + Xorshift.int rng 97)
        (Xorshift.int rng 50)
        (64 + Xorshift.int rng 1000))
    sizes;
  let arr () =
    let a = Xorshift.int rng narrays in
    (a, sizes.(a))
  in
  let idx_expr n =
    match Xorshift.int rng 3 with
    | 0 -> Printf.sprintf "i %% %d" n
    | 1 -> Printf.sprintf "((i * %d + %d) & 1023) %% %d" (1 + Xorshift.int rng 13) (Xorshift.int rng 7) n
    | _ -> Printf.sprintf "((i + j) & 1023) %% %d" n
  in
  let ops = [| "+"; "-"; "*"; "^"; "&"; "|" |] in
  let stmt () =
    match Xorshift.int rng 5 with
    | 0 ->
      let a, n = arr () in
      pr "      s = s %s A%d[%s];\n" (pick rng ops) a (idx_expr n)
    | 1 ->
      let a, n = arr () in
      pr "      A%d[%s] = s %s %d;\n" a (idx_expr n) (pick rng ops)
        (1 + Xorshift.int rng 100)
    | 2 -> pr "      if ((i & %d) == 0) { s = s + %d; }\n" (Xorshift.int rng 7) (1 + Xorshift.int rng 9)
    | 3 ->
      let a, n = arr () in
      pr "      s = s ^ (A%d[%s] * %d);\n" a (idx_expr n) (1 + Xorshift.int rng 31)
    | _ -> pr "      s = (s >> 1) & 0x7FFFFFFF;\n"
  in
  let nloops = 1 + Xorshift.int rng 2 in
  for _ = 1 to nloops do
    let _, n = arr () in
    pr "  for (i = 0; i < %d; i++) {\n" n;
    pr "    for (j = 0; j < %d; j++) {\n" (1 + Xorshift.int rng 6);
    let body = 1 + Xorshift.int rng 3 in
    for _ = 1 to body do
      stmt ()
    done;
    pr "    }\n  }\n"
  done;
  pr "  print_int(s);\n";
  let a, n = arr () in
  pr "  print_int(A%d[%d]);\n" a (Xorshift.int rng n);
  pr "  return 0;\n}\n";
  Buffer.contents buf

let minic_budget = 2_000_000

(* --- planted mutations (test hooks) ------------------------------------ *)

(* Guarded hooks for proving the campaign catches real bugs: each
   mutation flips one opcode in the *reference* program, modelling an
   emulator-semantics bug, and the oracle must flag the first retire
   of the mutated instruction.  Named (not closures) so a corpus entry
   can record which mutation it was captured under and replay it. *)

let mutation_names = [ "alu-flip"; "load-size-flip"; "branch-cond-flip" ]

let mutate_insn name insn =
  match (name, insn) with
  | "alu-flip", Insn.Alu a ->
    Some (Insn.Alu { a with op = (if a.op = Insn.Add then Insn.Xor else Insn.Add) })
  | "load-size-flip", Insn.Load l ->
    Some
      (Insn.Load
         { l with size = (if l.size = Insn.Word then Insn.Byte else Insn.Word) })
  | "branch-cond-flip", Insn.Branch b ->
    Some
      (Insn.Branch
         { b with cond = (if b.cond = Insn.Eq then Insn.Ne else Insn.Eq) })
  | _ -> None

let apply_mutation name program =
  if not (List.mem name mutation_names) then
    invalid_arg (Printf.sprintf "Gen.apply_mutation: unknown mutation %S" name);
  let done_ = ref false in
  Program.map_insns
    (fun _ insn ->
      if !done_ then insn
      else
        match mutate_insn name insn with
        | Some insn' ->
          done_ := true;
          insn'
        | None -> insn)
    program

(* --- params (de)serialization ------------------------------------------ *)

let iteration ~params ~source seed =
  match source with
  | "epa" ->
    let g = program ~params seed in
    (Some g, g.program, g.budget)
  | "minic" -> (None, Elag_harness.Compile.compile (minic seed), minic_budget)
  | other -> invalid_arg (Printf.sprintf "unknown source kind %S" other)

let verdict ?mutation ~budget cfg program =
  let reference = Option.map (fun m -> apply_mutation m program) mutation in
  let report = Elag_verify.Oracle.run ~max_insns:budget ?reference cfg program in
  (report, Elag_verify.Oracle.signature report)

let params_to_json p =
  Json.Obj
    [ ("segments", Json.Int p.segments)
    ; ("segment_ops", Json.Int p.segment_ops)
    ; ("arena_words", Json.Int p.arena_words)
    ; ("max_trip", Json.Int p.max_trip)
    ; ( "weights"
      , Json.Obj
          [ ("alu", Json.Int p.weights.alu)
          ; ("ld_n", Json.Int p.weights.ld_n)
          ; ("ld_p", Json.Int p.weights.ld_p)
          ; ("ld_e", Json.Int p.weights.ld_e)
          ; ("store", Json.Int p.weights.store)
          ; ("branch", Json.Int p.weights.branch)
          ; ("loop", Json.Int p.weights.loop)
          ; ("print", Json.Int p.weights.print) ] ) ]

let params_of_json j =
  let field obj name =
    match Option.bind (Json.member name obj) Json.to_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "gen params: missing int field %S" name)
  in
  let ( let* ) = Result.bind in
  let* segments = field j "segments" in
  let* segment_ops = field j "segment_ops" in
  let* arena_words = field j "arena_words" in
  let* max_trip = field j "max_trip" in
  match Json.member "weights" j with
  | None -> Error "gen params: missing weights"
  | Some w ->
    let* alu = field w "alu" in
    let* ld_n = field w "ld_n" in
    let* ld_p = field w "ld_p" in
    let* ld_e = field w "ld_e" in
    let* store = field w "store" in
    let* branch = field w "branch" in
    let* loop = field w "loop" in
    let* print = field w "print" in
    Ok
      { segments
      ; segment_ops
      ; arena_words
      ; max_trip
      ; weights = { alu; ld_n; ld_p; ld_e; store; branch; loop; print } }
