(* An assembled EPA-32 program: label-resolved code plus the initial
   data image.  Control-transfer targets are pre-resolved into the
   [targets] array so the emulator never performs string lookups, and
   the static facts the timing model and the profiler read are decoded
   once, into flat per-pc tables and a dense numbering of the loads. *)

type item =
  | Label of string
  | Insn of Insn.t
  | Comment of string

type op = Single_cycle | Multiply | Divide | Load | Store | Predicted | Direct

type t =
  { code : Insn.t array
  ; targets : int array  (* resolved target index per instruction, -1 if none *)
  ; ops : op array
  ; facts : int array  (* the other per-pc facts, packed by [pack] *)
  ; load_pcs : int array  (* by load number, ascending *)
  ; load_specs : Insn.load_spec array  (* by load number *)
  ; symbols : (string, int) Hashtbl.t  (* code label -> instruction index *)
  ; entry : int
  ; data_image : (int * string) list
  ; heap_base : int }

exception Unknown_label of string

let target_label = function
  | Insn.Branch { target; _ } -> Some target
  | Insn.Jump l | Insn.Jal l -> Some l
  | _ -> None

let op_of = function
  | Insn.Alu { op = Insn.Mul; _ } -> Multiply
  | Insn.Alu { op = Insn.Div | Insn.Rem; _ } -> Divide
  | Insn.Alu _ | Insn.Li _ | Insn.Syscall _ | Insn.Nop | Insn.Halt -> Single_cycle
  | Insn.Load _ -> Load
  | Insn.Store _ -> Store
  | Insn.Branch _ | Insn.Jr _ | Insn.Jalr _ -> Predicted
  | Insn.Jump _ | Insn.Jal _ -> Direct

(* One int per pc, from the low end: the sources (six bits each, at
   most three), the destination + 1 and the base register + 1 (seven
   bits each), the access width (three bits), and above them the load
   number + 1, which [make] adds.  Registers are below 64 and the zero
   register is never a source, so 0 ends the sources. *)
let pack insn =
  let sources = List.fold_right (fun r acc -> (acc lsl 6) lor r) (Insn.uses insn) 0 in
  let dest = match Insn.defs insn with [ d ] -> d | _ -> -1 in
  let width, base =
    match insn with
    | Insn.Load { size; addr; _ } | Insn.Store { size; addr; _ } ->
      (Insn.size_bytes size, match addr with Insn.Base_offset (b, _) -> b | _ -> -1)
    | _ -> (0, -1)
  in
  sources lor ((dest + 1) lsl 18) lor ((base + 1) lsl 25) lor (width lsl 32)

let load_shift = 35

let () = assert (Reg.count <= 64 && Reg.zero = 0)

(* The program over [code], with every static table decoded from it;
   [assemble] and [map_insns] build programs only through here. *)
let make code ~targets ~symbols ~entry ~data_image ~heap_base =
  let n = Array.length code in
  let load_pcs = Array.of_list (List.filter (fun pc -> Insn.is_load code.(pc)) (List.init n Fun.id)) in
  let facts = Array.map pack code in
  Array.iteri (fun k pc -> facts.(pc) <- facts.(pc) lor ((k + 1) lsl load_shift)) load_pcs;
  { code
  ; targets
  ; ops = Array.map op_of code
  ; facts
  ; load_pcs
  ; load_specs = Array.map (fun pc -> Option.get (Insn.load_spec code.(pc))) load_pcs
  ; symbols
  ; entry
  ; data_image
  ; heap_base }

let assemble ?(entry = "_start") ~layout items =
  (* [~random:false] here and in [labels_at]: the order of labels
     sharing an index in a listing follows these tables *)
  let symbols = Hashtbl.create ~random:false 256 in
  let count =
    List.fold_left
      (fun idx item ->
        match item with
        | Label l ->
          if Hashtbl.mem symbols l then
            invalid_arg (Printf.sprintf "Program.assemble: duplicate label %s" l);
          Hashtbl.replace symbols l idx;
          idx
        | Insn _ -> idx + 1
        | Comment _ -> idx)
      0 items
  in
  let code = Array.make (max count 1) Insn.Halt in
  let _ =
    List.fold_left
      (fun idx item ->
        match item with
        | Insn insn ->
          code.(idx) <- insn;
          idx + 1
        | Label _ | Comment _ -> idx)
      0 items
  in
  let resolve l =
    match Hashtbl.find_opt symbols l with
    | Some idx -> idx
    | None -> raise (Unknown_label l)
  in
  let targets =
    Array.map
      (fun insn ->
        match target_label insn with Some l -> resolve l | None -> -1)
      code
  in
  make code ~targets ~symbols ~entry:(resolve entry) ~data_image:(Layout.image layout)
    ~heap_base:(Layout.heap_base layout)

let length t = Array.length t.code

let insn t pc = t.code.(pc)

let target t pc = t.targets.(pc)

let op t pc = t.ops.(pc)
let sources t pc = t.facts.(pc) land 0x3ffff
let dest t pc = ((t.facts.(pc) lsr 18) land 127) - 1
let base t pc = ((t.facts.(pc) lsr 25) land 127) - 1
let width t pc = (t.facts.(pc) lsr 32) land 7
let load_index t pc = (t.facts.(pc) lsr load_shift) - 1
let load_count t = Array.length t.load_pcs
let load_pc t k = t.load_pcs.(k)
let load_spec t k = t.load_specs.(k)

let entry t = t.entry

let data_image t = t.data_image

let heap_base t = t.heap_base

let symbol t label =
  match Hashtbl.find_opt t.symbols label with
  | Some idx -> idx
  | None -> raise (Unknown_label label)

(* Reverse map from instruction index to the labels placed on it, for
   disassembly listings. *)
let labels_at t =
  let map = Hashtbl.create ~random:false 64 in
  Hashtbl.iter (fun l idx -> Hashtbl.add map idx l) t.symbols;
  fun idx -> Hashtbl.find_all map idx

let pp ppf t =
  let at = labels_at t in
  Array.iteri
    (fun idx insn ->
      List.iter (fun l -> Fmt.pf ppf "%s:@." l) (at idx);
      Fmt.pf ppf "  %04d  %a@." idx Insn.pp insn)
    t.code

(* Rewrite instructions (e.g. profile-driven load reclassification);
   control-flow targets must be preserved by [f]. *)
let map_insns f t =
  make (Array.mapi f t.code) ~targets:t.targets ~symbols:t.symbols ~entry:t.entry
    ~data_image:t.data_image ~heap_base:t.heap_base

let static_loads t =
  Array.to_list (Array.map (fun pc -> (pc, t.code.(pc))) t.load_pcs)
