(* Static EPA-32 lint: structural checks that every compiled or
   hand-assembled artifact must pass before it is worth simulating. *)

module Insn = Elag_isa.Insn
module Reg = Elag_isa.Reg
module Program = Elag_isa.Program
module Json = Elag_telemetry.Json

type issue = { pc : int option; rule : string; detail : string }

type report = { checked : int; issues : issue list }

let ok r = r.issues = []

exception Rejected of report

let code_issue issues pc rule detail =
  issues := { pc = Some pc; rule; detail } :: !issues

let data_issue issues rule detail = issues := { pc = None; rule; detail } :: !issues

let check_registers issues pc insn =
  let bad kind r =
    code_issue issues pc "register-invalid"
      (Fmt.str "%s register %d out of range (0..%d)" kind r (Reg.count - 1))
  in
  List.iter (fun r -> if not (Reg.is_valid r) then bad "source" r) (Insn.uses insn);
  List.iter (fun r -> if not (Reg.is_valid r) then bad "destination" r) (Insn.defs insn)

let check_control issues program len pc insn =
  match insn with
  | Insn.Branch _ | Insn.Jump _ | Insn.Jal _ ->
    let target = Program.target program pc in
    if target < 0 || target >= len then
      code_issue issues pc "control-target"
        (Fmt.str "static target %d outside code segment [0, %d)" target len)
  | _ -> ()

let memory_size = Elag_sim.Memory.default_size

let check_load issues pc insn =
  match insn with
  | Insn.Load { spec; size; addr; _ } -> (
    (match (spec, addr) with
    | Insn.Ld_e, Insn.Base_offset (base, _) ->
      if base = Reg.zero then
        code_issue issues pc "ld_e-binding"
          "ld_e base is r0: R_addr cannot bind the zero register \
           (the address is static; use ld_n with absolute addressing)"
    | Insn.Ld_e, (Insn.Base_index _ | Insn.Absolute _) ->
      code_issue issues pc "ld_e-binding"
        (Fmt.str "ld_e requires register+offset addressing, got %a"
           Insn.pp_addr_mode addr)
    | (Insn.Ld_n | Insn.Ld_p), _ -> ());
    match addr with
    | Insn.Absolute a ->
      let n = Insn.size_bytes size in
      if a < 0 || a + n > memory_size then
        code_issue issues pc "absolute-bounds"
          (Fmt.str "absolute load of %d bytes at %d outside memory of %d"
             n a memory_size)
    | _ -> ())
  | Insn.Store { size; addr = Insn.Absolute a; _ } ->
    let n = Insn.size_bytes size in
    if a < 0 || a + n > memory_size then
      code_issue issues pc "absolute-bounds"
        (Fmt.str "absolute store of %d bytes at %d outside memory of %d" n a
           memory_size)
  | _ -> ()

let check_data issues program =
  List.iter
    (fun (addr, bytes) ->
      let n = String.length bytes in
      if addr < 0 || addr + n > memory_size then
        data_issue issues "data-bounds"
          (Fmt.str "data region [%d, %d) outside memory of %d" addr (addr + n)
             memory_size))
    (Program.data_image program);
  let hb = Program.heap_base program in
  if hb < 0 || hb > memory_size then
    data_issue issues "heap-bounds"
      (Fmt.str "heap base %d outside memory of %d" hb memory_size)

let check program =
  let len = Program.length program in
  let issues = ref [] in
  let entry = Program.entry program in
  if entry < 0 || entry >= len then
    data_issue issues "entry-point"
      (Fmt.str "entry point %d outside code segment [0, %d)" entry len);
  for pc = 0 to len - 1 do
    let insn = Program.insn program pc in
    check_registers issues pc insn;
    check_control issues program len pc insn;
    check_load issues pc insn
  done;
  check_data issues program;
  { checked = len; issues = List.rev !issues }

let enforce program =
  let r = check program in
  if not (ok r) then raise (Rejected r)

let pp_issue ppf i =
  match i.pc with
  | Some pc -> Fmt.pf ppf "pc %d: %s: %s" pc i.rule i.detail
  | None -> Fmt.pf ppf "%s: %s" i.rule i.detail

let pp ppf r =
  if ok r then Fmt.pf ppf "lint: ok (%d instructions)" r.checked
  else begin
    Fmt.pf ppf "lint: %d issue%s in %d instructions"
      (List.length r.issues)
      (if List.length r.issues = 1 then "" else "s")
      r.checked;
    List.iter (fun i -> Fmt.pf ppf "@,  %a" pp_issue i) r.issues
  end

let to_json r =
  Json.Obj
    [ ("ok", Json.Bool (ok r))
    ; ("checked", Json.Int r.checked)
    ; ( "issues"
      , Json.List
          (List.map
             (fun i ->
               Json.Obj
                 [ ( "pc"
                   , match i.pc with Some pc -> Json.Int pc | None -> Json.Null
                   )
                 ; ("rule", Json.String i.rule)
                 ; ("detail", Json.String i.detail) ])
             r.issues) ) ]

let () =
  Printexc.register_printer (function
    | Rejected r ->
      Some
        (Fmt.str "Lint.Rejected: %d issue(s), first: %a"
           (List.length r.issues)
           Fmt.(option pp_issue)
           (match r.issues with [] -> None | i :: _ -> Some i))
    | _ -> None)
