(* Lockstep differential oracle over the retired-instruction stream.

   The subject run drives a pipeline observer as usual; the oracle
   rides on the same observer and, for every subject retire, steps a
   second, independent emulator over the reference program and demands
   the two retire events agree field by field.  Divergence handling is
   first-failure: the initial disagreement is captured together with a
   short window of the agreeing events that led up to it, and the
   reference emulator is frozen so a cascade of follow-on mismatches
   cannot bury the root cause. *)

module Insn = Elag_isa.Insn
module Program = Elag_isa.Program
module Emulator = Elag_sim.Emulator
module Json = Elag_telemetry.Json

type event =
  { ev_index : int
  ; ev_pc : int
  ; ev_insn : Insn.t
  ; ev_eff : int
  ; ev_taken : bool
  ; ev_next_pc : int }

type divergence =
  { div_index : int
  ; div_subject : event
  ; div_reference : event option
  ; div_recent : event list }

type report =
  { compared : int
  ; divergence : divergence option
  ; subject_output : string
  ; reference_output : string
  ; outputs_match : bool
  ; reference_trailing : bool
  ; subject_cycles : int }

let ok r =
  r.divergence = None && r.outputs_match && not r.reference_trailing

(* The checker keeps no per-retire allocation: the reference retire is
   captured by one closure built in [create] (passed to
   {!Emulator.step} as a preallocated option), the agreeing events sit
   in a fixed ring of parallel arrays (retire [i] in slot [i mod ring]),
   and [event] records are built only at the divergence, reading each
   instruction from its program. *)
let ring = 8

type t =
  { reference : Emulator.t
  ; reference_program : Program.t
  ; ring_pc : int array
  ; ring_eff : int array
  ; ring_taken : bool array
  ; ring_next_pc : int array
  ; mutable compared : int
  ; mutable div : divergence option
  ; mutable ref_pc : int
  ; mutable ref_eff : int
  ; mutable ref_taken : bool
  ; mutable ref_next_pc : int
  ; capture : Emulator.observer option }

let create program =
  let rec t =
    { reference = Emulator.create program
    ; reference_program = program
    ; ring_pc = Array.make ring 0
    ; ring_eff = Array.make ring 0
    ; ring_taken = Array.make ring false
    ; ring_next_pc = Array.make ring 0
    ; compared = 0
    ; div = None
    ; ref_pc = 0
    ; ref_eff = 0
    ; ref_taken = false
    ; ref_next_pc = 0
    ; capture =
        Some
          (fun _ pc eff taken next_pc ->
            t.ref_pc <- pc;
            t.ref_eff <- eff;
            t.ref_taken <- taken;
            t.ref_next_pc <- next_pc) }
  in
  t

(* the last [min ring compared] agreeing events of the subject
   program [p], oldest first *)
let recent_list t p =
  let n = min ring t.compared in
  List.init n (fun k ->
      let i = t.compared - n + k in
      let s = i mod ring in
      { ev_index = i
      ; ev_pc = t.ring_pc.(s)
      ; ev_insn = Program.insn p t.ring_pc.(s)
      ; ev_eff = t.ring_eff.(s)
      ; ev_taken = t.ring_taken.(s)
      ; ev_next_pc = t.ring_next_pc.(s) })

(* Both programs' instructions at [pc]; a planted mutation shares
   every instruction it leaves alone, so [==] settles all but one pc. *)
let same_insn p q pc =
  let a = Program.insn p pc and b = Program.insn q pc in
  a == b || a = b

let observer t : Emulator.observer =
 fun p pc eff taken next_pc ->
  match t.div with
  | Some _ -> ()
  | None ->
    let stepped = Emulator.step ?observer:t.capture t.reference in
    if
      stepped && pc = t.ref_pc
      && same_insn p t.reference_program pc
      && eff = t.ref_eff && taken = t.ref_taken && next_pc = t.ref_next_pc
    then begin
      let s = t.compared mod ring in
      t.ring_pc.(s) <- pc;
      t.ring_eff.(s) <- eff;
      t.ring_taken.(s) <- taken;
      t.ring_next_pc.(s) <- next_pc;
      t.compared <- t.compared + 1
    end
    else
      let event prog pc eff taken next_pc =
        { ev_index = t.compared
        ; ev_pc = pc
        ; ev_insn = Program.insn prog pc
        ; ev_eff = eff
        ; ev_taken = taken
        ; ev_next_pc = next_pc }
      in
      t.div <-
        Some
          { div_index = t.compared
          ; div_subject = event p pc eff taken next_pc
          ; div_reference =
              (if stepped then
                 Some
                   (event t.reference_program t.ref_pc t.ref_eff t.ref_taken
                      t.ref_next_pc)
               else None)
          ; div_recent = recent_list t p }

let divergence t = t.div

let run ?max_insns ?reference (cfg : Elag_sim.Config.t) program =
  let reference_prog = Option.value reference ~default:program in
  let oracle = create reference_prog in
  let pipe = Elag_sim.Pipeline.create cfg in
  let pipe_obs = Elag_sim.Pipeline.observer pipe in
  let oracle_obs = observer oracle in
  let obs p pc eff taken next_pc =
    pipe_obs p pc eff taken next_pc;
    oracle_obs p pc eff taken next_pc
  in
  let subject = Emulator.create program in
  Emulator.run ~observer:obs ?max_insns subject;
  let subject_output = Emulator.output subject in
  let reference_output = Emulator.output oracle.reference in
  { compared = oracle.compared
  ; divergence = oracle.div
  ; subject_output
  ; reference_output
  ; outputs_match = String.equal subject_output reference_output
  ; reference_trailing =
      oracle.div = None && not (Emulator.halted oracle.reference)
  ; subject_cycles = (Elag_sim.Pipeline.stats pipe).cycles }

(* --- failure signature ------------------------------------------------ *)

(* A stable label for the failure *class*, independent of pcs, indices
   and operand values.  The shrinker minimizes against it: a candidate
   program only counts as "still failing" when it fails the same way,
   so deleting instructions can never silently trade the original bug
   for an unrelated one (e.g. an output mismatch for a halted-early
   reference). *)

let insn_kind = function
  | Insn.Alu _ -> "alu"
  | Insn.Li _ -> "li"
  | Insn.Load _ -> "load"
  | Insn.Store _ -> "store"
  | Insn.Branch _ -> "branch"
  | Insn.Jump _ -> "jump"
  | Insn.Jal _ -> "jal"
  | Insn.Jalr _ -> "jalr"
  | Insn.Jr _ -> "jr"
  | Insn.Syscall _ -> "syscall"
  | Insn.Nop -> "nop"
  | Insn.Halt -> "halt"

let signature r =
  match r.divergence with
  | Some d ->
    let ref_kind =
      match d.div_reference with
      | Some e -> insn_kind e.ev_insn
      | None -> "halted"
    in
    Some
      (Printf.sprintf "divergence:%s-vs-%s"
         (insn_kind d.div_subject.ev_insn)
         ref_kind)
  | None ->
    if not r.outputs_match then Some "output-mismatch"
    else if r.reference_trailing then Some "reference-trailing"
    else None

(* --- rendering -------------------------------------------------------- *)

let pp_event ppf e =
  Fmt.pf ppf "#%d pc=%d %a eff=%d taken=%b next=%d" e.ev_index e.ev_pc
    Insn.pp e.ev_insn e.ev_eff e.ev_taken e.ev_next_pc

let pp ppf r =
  match r.divergence with
  | None ->
    if ok r then
      Fmt.pf ppf "oracle: ok (%d events, %d cycles)" r.compared
        r.subject_cycles
    else if not r.outputs_match then
      Fmt.pf ppf "oracle: OUTPUT MISMATCH after %d agreeing events"
        r.compared
    else
      Fmt.pf ppf
        "oracle: REFERENCE TRAILING (subject halted after %d events)"
        r.compared
  | Some d ->
    Fmt.pf ppf "oracle: DIVERGENCE at retire #%d@,  subject:   %a@,"
      d.div_index pp_event d.div_subject;
    (match d.div_reference with
    | Some e -> Fmt.pf ppf "  reference: %a" pp_event e
    | None -> Fmt.pf ppf "  reference: (already halted)");
    if d.div_recent <> [] then begin
      Fmt.pf ppf "@,  last agreeing events:";
      List.iter (fun e -> Fmt.pf ppf "@,    %a" pp_event e) d.div_recent
    end

let event_json e =
  Json.Obj
    [ ("index", Json.Int e.ev_index)
    ; ("pc", Json.Int e.ev_pc)
    ; ("insn", Json.String (Fmt.str "%a" Insn.pp e.ev_insn))
    ; ("eff", Json.Int e.ev_eff)
    ; ("taken", Json.Bool e.ev_taken)
    ; ("next_pc", Json.Int e.ev_next_pc) ]

let to_json r =
  let divergence =
    match r.divergence with
    | None -> Json.Null
    | Some d ->
      Json.Obj
        [ ("index", Json.Int d.div_index)
        ; ("subject", event_json d.div_subject)
        ; ( "reference"
          , match d.div_reference with
            | Some e -> event_json e
            | None -> Json.Null )
        ; ("recent", Json.List (List.map event_json d.div_recent)) ]
  in
  Json.Obj
    [ ("ok", Json.Bool (ok r))
    ; ("compared", Json.Int r.compared)
    ; ("outputs_match", Json.Bool r.outputs_match)
    ; ("reference_trailing", Json.Bool r.reference_trailing)
    ; ("subject_cycles", Json.Int r.subject_cycles)
    ; ("divergence", divergence) ]
