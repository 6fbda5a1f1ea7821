(* Address profiling (paper §4.3).

   An emulation pass drives the unbounded per-load stride predictor over
   every dynamic load, yielding per-load prediction rates and execution
   counts.  Reclassification then upgrades [ld_n] loads whose rate
   exceeds the threshold (60% in the paper) to [ld_p] — and changes
   nothing else, exactly as the paper prescribes. *)

module Insn = Elag_isa.Insn
module Program = Elag_isa.Program
module Ideal = Elag_predict.Ideal
module Emulator = Elag_sim.Emulator

type t = { program : Program.t; rates : Ideal.t }

let collect ?max_insns program =
  let rates = Ideal.create (Program.load_count program) in
  let observer p pc eff _taken _next =
    let load = Program.load_index p pc in
    if load >= 0 then Ideal.observe rates ~load ~ca:eff
  in
  ignore (Emulator.run_program ~observer ?max_insns program);
  { program; rates }

let total_loads t =
  List.fold_left (fun n k -> n + Ideal.executions t.rates k) 0
    (List.init (Program.load_count t.program) Fun.id)

let by_pc f default t pc =
  let load = Program.load_index t.program pc in
  if load < 0 then default else f t.rates load

let rate = by_pc Ideal.rate None
let executions = by_pc Ideal.executions 0

(* The paper's reclassification threshold. *)
let threshold = 0.60

(* Profile-guided reclassification: ld_n loads with a prediction rate
   above [threshold] become ld_p.  Nothing else is overruled. *)
let reclassify t program =
  Program.map_insns
    (fun pc insn ->
      match insn with
      | Insn.Load ({ spec = Insn.Ld_n; _ } as l) -> begin
        match rate t pc with
        | Some r when r > threshold -> Insn.Load { l with spec = Insn.Ld_p }
        | _ -> insn
      end
      | _ -> insn)
    program
