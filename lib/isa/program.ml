(* An assembled EPA-32 program: label-resolved code plus the initial
   data image.  Control-transfer targets are pre-resolved into the
   [targets] array so the emulator never performs string lookups. *)

type item =
  | Label of string
  | Insn of Insn.t
  | Comment of string

type t =
  { code : Insn.t array
  ; targets : int array  (* resolved target index per instruction, -1 if none *)
  ; symbols : (string, int) Hashtbl.t  (* code label -> instruction index *)
  ; entry : int
  ; data_image : (int * string) list
  ; heap_base : int }

exception Unknown_label of string

let target_label = function
  | Insn.Branch { target; _ } -> Some target
  | Insn.Jump l | Insn.Jal l -> Some l
  | _ -> None

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
  { code
  ; targets
  ; symbols
  ; entry = resolve entry
  ; data_image = Layout.image layout
  ; heap_base = Layout.heap_base layout }

let length t = Array.length t.code

let insn t pc = t.code.(pc)

let target t pc = t.targets.(pc)

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
  let code = Array.mapi f t.code in
  { t with code }

(* Static load table: one row per static load instruction, used by the
   classification and profiling machinery which is keyed by load PC. *)
let static_loads t =
  let rows = ref [] in
  Array.iteri
    (fun pc insn -> if Insn.is_load insn then rows := (pc, insn) :: !rows)
    t.code;
  List.rev !rows
