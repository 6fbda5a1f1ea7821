(* Address profiling (paper §4.3).

   An emulation pass drives the unbounded per-PC stride predictor over
   every dynamic load, yielding per-load prediction rates and execution
   counts.  Reclassification then upgrades [ld_n] loads whose rate
   exceeds the threshold (60% in the paper) to [ld_p] — and changes
   nothing else, exactly as the paper prescribes. *)

module Insn = Elag_isa.Insn
module Program = Elag_isa.Program
module Ideal = Elag_predict.Ideal
module Emulator = Elag_sim.Emulator

type t = { rates : Ideal.t; mutable total_loads : int }

let collect ?max_insns program =
  let t = { rates = Ideal.create (); total_loads = 0 } in
  let observer pc insn eff _taken _next =
    if Insn.is_load insn then begin
      t.total_loads <- t.total_loads + 1;
      Ideal.observe t.rates ~pc ~ca:eff
    end
  in
  ignore (Emulator.run_program ~observer ?max_insns program);
  t

let rate t pc = Ideal.rate t.rates pc

let executions t pc = Ideal.executions t.rates pc

let default_threshold = 0.60

(* Profile-guided reclassification: ld_n loads with a prediction rate
   above [threshold] become ld_p.  Nothing else is overruled. *)
let reclassify ?(threshold = default_threshold) t program =
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
