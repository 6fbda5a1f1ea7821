module Emulator = Elag_sim.Emulator
module Memory = Elag_sim.Memory

let describe = function
  | Emulator.Runaway retired ->
    Some
      (Fmt.str
         "runaway program: instruction budget exhausted after %d retired \
          instructions (raise --max-insns if the workload is genuinely \
          this long)"
         retired)
  | Emulator.Bad_jump { pc; retired } ->
    Some
      (Fmt.str
         "bad jump: control transferred to pc %d, outside the code \
          segment, after %d retired instructions"
         pc retired)
  | Memory.Fault addr ->
    Some (Fmt.str "memory fault: access at address %d outside the image" addr)
  | Lint.Rejected r ->
    Some
      (Fmt.str "program rejected by lint: %d issue(s); first: %a"
         (List.length r.Lint.issues)
         Fmt.(option Lint.pp_issue)
         (match r.Lint.issues with [] -> None | i :: _ -> Some i))
  | _ -> None

(* The default failure action is process-level (print + exit 2), so
   tests inject their own [fail] to assert the mapping without killing
   the test runner. *)
let exit_fail prog line =
  Printf.eprintf "%s: %s\n%!" prog line;
  exit 2

let guard ?fail prog f =
  let fail = Option.value fail ~default:(exit_fail prog) in
  try f ()
  with e -> (
    match describe e with
    | Some line -> fail line
    | None -> raise e)
