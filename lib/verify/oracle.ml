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

type t =
  { reference : Emulator.t
  ; keep : int
  ; recent : event Queue.t
  ; mutable compared : int
  ; mutable div : divergence option }

let create ?(keep = 8) program =
  if keep < 0 then invalid_arg "Oracle.create";
  { reference = Emulator.create program
  ; keep
  ; recent = Queue.create ()
  ; compared = 0
  ; div = None }

let recent_list t = List.of_seq (Queue.to_seq t.recent)

let event_equal a b =
  a.ev_pc = b.ev_pc && a.ev_insn = b.ev_insn && a.ev_eff = b.ev_eff
  && a.ev_taken = b.ev_taken && a.ev_next_pc = b.ev_next_pc

let observer t : Emulator.observer =
 fun pc insn eff taken next_pc ->
  if t.div = None then begin
    let subject =
      { ev_index = t.compared
      ; ev_pc = pc
      ; ev_insn = insn
      ; ev_eff = eff
      ; ev_taken = taken
      ; ev_next_pc = next_pc }
    in
    let captured = ref None in
    let capture rpc rinsn reff rtaken rnext =
      captured :=
        Some
          { ev_index = t.compared
          ; ev_pc = rpc
          ; ev_insn = rinsn
          ; ev_eff = reff
          ; ev_taken = rtaken
          ; ev_next_pc = rnext }
    in
    ignore (Emulator.step ~observer:capture t.reference : bool);
    match !captured with
    | Some r when event_equal subject r ->
      t.compared <- t.compared + 1;
      if t.keep > 0 then begin
        Queue.push subject t.recent;
        if Queue.length t.recent > t.keep then ignore (Queue.pop t.recent)
      end
    | reference ->
      t.div <-
        Some
          { div_index = t.compared
          ; div_subject = subject
          ; div_reference = reference
          ; div_recent = recent_list t }
  end

let divergence t = t.div

let run ?max_insns ?keep ?reference (cfg : Elag_sim.Config.t) program =
  let reference_prog = Option.value reference ~default:program in
  let oracle = create ?keep reference_prog in
  let pipe = Elag_sim.Pipeline.create cfg in
  let pipe_obs = Elag_sim.Pipeline.observer pipe in
  let oracle_obs = observer oracle in
  let obs pc insn eff taken next_pc =
    pipe_obs pc insn eff taken next_pc;
    oracle_obs pc insn eff taken next_pc
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
