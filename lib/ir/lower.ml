(* Lowering from the typed MiniC tree ({!Elag_minic.Typed}) to the IR.

   Storage decisions: scalar locals whose address is never taken live in
   virtual registers (the "variable promotion" the paper's heuristics
   depend on); arrays, structs and address-taken scalars get frame
   slots.  Scalar globals are accessed with absolute addressing
   ([Abs_sym]), which the acyclic classification heuristic later keys
   on. *)

module Ast = Elag_minic.Ast
module Typed = Elag_minic.Typed
module Structs = Elag_minic.Structs
module Insn = Elag_isa.Insn
module Layout = Elag_isa.Layout

exception Error of { ctx : string; msg : string }
(* Structured lowering failure: [ctx] says where (function and, when
   the typed tree provides one, source line), [msg] says what. *)

let () =
  Printexc.register_printer (function
    | Error { ctx; msg } -> Some (Fmt.str "Lower.Error (%s): %s" ctx msg)
    | _ -> None)

let err ~ctx msg = raise (Error { ctx; msg })

type storage = Sreg of Ir.vreg | Sslot of int

type ctx =
  { f : Ir.func
  ; structs : Structs.t
  ; storage : (int, storage) Hashtbl.t  (* local_id -> storage *)
  ; mutable cur_label : string
  ; mutable cur_insts : Ir.inst list  (* reversed *)
  ; mutable finished : Ir.block list  (* reversed *)
  ; mutable terminated : bool
  ; mutable break_labels : string list
  ; mutable continue_labels : string list }

(* Source context for error reporting: the function being lowered and,
   when a typed expression is at hand, its source line. *)
let loc ?line ctx =
  match line with
  | Some l -> Fmt.str "function %s, line %d" ctx.f.Ir.name l
  | None -> Fmt.str "function %s" ctx.f.Ir.name

let emit ctx inst = if not ctx.terminated then ctx.cur_insts <- inst :: ctx.cur_insts

let terminate ctx term =
  if not ctx.terminated then begin
    ctx.finished <-
      { Ir.label = ctx.cur_label; insts = List.rev ctx.cur_insts; term }
      :: ctx.finished;
    ctx.terminated <- true
  end

let start_block ctx label =
  if not ctx.terminated then terminate ctx (Ir.Jmp label);
  ctx.cur_label <- label;
  ctx.cur_insts <- [];
  ctx.terminated <- false

let fresh ctx = Ir.fresh_vreg ctx.f
let fresh_label ctx prefix = Ir.fresh_label ctx.f prefix

(* Force an operand into a virtual register. *)
let as_reg ctx = function
  | Ir.Reg v -> v
  | Ir.Imm n ->
    let v = fresh ctx in
    emit ctx (Ir.Mov (v, Ir.Imm n));
    v

let emit_bin ctx op a b =
  let v = fresh ctx in
  emit ctx (Ir.Bin (op, v, a, b));
  Ir.Reg v

(* Memory size/signedness for accessing a value of the given type.
   MiniC's char is unsigned. *)
let access_of_ty ~ctx:where = function
  | Ast.Tchar -> (Insn.Byte, Insn.Unsigned)
  | Ast.Tint | Ast.Tptr _ -> (Insn.Word, Insn.Signed)
  | ty ->
    err ~ctx:where
      (Fmt.str "cannot access a value of type %a as a scalar" Ast.pp_ty ty)

let size_of ctx ty = Structs.size_of ctx.structs ty

(* The access a place of type [ty] is read and written with.  An
   aggregate place is only addressed, so its access is unused. *)
let place_access ctx line ty =
  match ty with
  | Ast.Tint | Ast.Tchar | Ast.Tptr _ -> access_of_ty ~ctx:(loc ~line ctx) ty
  | _ -> (Insn.Word, Insn.Signed)

let log2_exact n =
  let rec go k v = if v = n then Some k else if v > n then None else go (k + 1) (v * 2) in
  if n <= 0 then None else go 0 1

(* Scale an index operand by a constant element size. *)
let scale_index ctx idx size =
  if size = 1 then idx
  else
    match idx with
    | Ir.Imm n -> Ir.Imm (n * size)
    | Ir.Reg _ ->
      (match log2_exact size with
      | Some k -> emit_bin ctx Ir.Sll idx (Ir.Imm k)
      | None -> emit_bin ctx Ir.Mul idx (Ir.Imm size))

(* Add a displacement to an address. *)
let offset_address ctx addr extra =
  if extra = 0 then addr
  else
    match addr with
    | Ir.Base (b, d) -> Ir.Base (b, d + extra)
    | Ir.Abs a -> Ir.Abs (a + extra)
    | Ir.Abs_sym (l, d) -> Ir.Abs_sym (l, d + extra)
    | Ir.Base_index (b, i) ->
      let sum = as_reg ctx (emit_bin ctx Ir.Add (Ir.Reg b) (Ir.Reg i)) in
      Ir.Base (sum, extra)

(* Materialize the value of an address (a "load effective address"). *)
let address_value ctx = function
  | Ir.Base (b, 0) -> Ir.Reg b
  | Ir.Base (b, d) -> emit_bin ctx Ir.Add (Ir.Reg b) (Ir.Imm d)
  | Ir.Base_index (b, i) -> emit_bin ctx Ir.Add (Ir.Reg b) (Ir.Reg i)
  | Ir.Abs a -> Ir.Imm a
  | Ir.Abs_sym (l, d) ->
    let v = fresh ctx in
    emit ctx (Ir.Global_addr (v, l));
    if d = 0 then Ir.Reg v else emit_bin ctx Ir.Add (Ir.Reg v) (Ir.Imm d)

(* An assignable/addressable place. *)
type place =
  | Preg of Ir.vreg
  | Pmem of Ir.address * Insn.mem_size * Insn.signedness

let slot_address ctx slot =
  let v = fresh ctx in
  emit ctx (Ir.Slot_addr (v, slot));
  Ir.Base (v, 0)

let cond_of_binop = function
  | Ast.Eq -> Some (Insn.Eq, false)
  | Ast.Ne -> Some (Insn.Ne, false)
  | Ast.Lt -> Some (Insn.Lt, false)
  | Ast.Le -> Some (Insn.Le, false)
  | Ast.Gt -> Some (Insn.Lt, true)  (* a > b  <=>  b < a *)
  | Ast.Ge -> Some (Insn.Le, true)
  | _ -> None

let rec lower_place ctx (e : Typed.expr) : place =
  match e.desc with
  | Typed.Var (Typed.Local l) -> begin
    match Hashtbl.find_opt ctx.storage l.Typed.local_id with
    | Some (Sreg v) -> Preg v
    | Some (Sslot s) ->
      let size, sign = place_access ctx e.Typed.line l.Typed.local_ty in
      Pmem (slot_address ctx s, size, sign)
    | None ->
      err ~ctx:(loc ~line:e.Typed.line ctx)
        ("reference to local without storage: " ^ l.Typed.local_name)
  end
  | Typed.Var (Typed.Global (name, ty)) ->
    let size, sign = place_access ctx e.Typed.line ty in
    Pmem (Ir.Abs_sym (name, 0), size, sign)
  | Typed.Deref p ->
    let addr = lower_to_address ctx p 0 in
    let size, sign = place_access ctx e.Typed.line e.ty in
    Pmem (addr, size, sign)
  | Typed.Index (base, idx) ->
    let size, sign = place_access ctx e.Typed.line e.ty in
    Pmem (index_address ctx base idx (size_of ctx e.ty) 0, size, sign)
  | Typed.Field (base, fname) ->
    let sname =
      match base.ty with
      | Ast.Tstruct s -> s
      | ty ->
        err ~ctx:(loc ~line:e.Typed.line ctx)
          (Fmt.str "field access on non-struct value of type %a" Ast.pp_ty ty)
    in
    let field = Structs.field ctx.structs ~struct_name:sname ~field_name:fname in
    let base_addr =
      match lower_place ctx base with
      | Pmem (addr, _, _) -> addr
      | Preg _ ->
        err ~ctx:(loc ~line:e.Typed.line ctx)
          "struct value has register storage; fields need memory"
    in
    let size, sign = place_access ctx e.Typed.line field.Structs.field_ty in
    Pmem (offset_address ctx base_addr field.Structs.offset, size, sign)
  | _ ->
    err ~ctx:(loc ~line:e.Typed.line ctx)
      "expression is not assignable (not a place)"

(* Lower a pointer-valued expression to an address with displacement
   [disp], avoiding a materialized add when possible. *)
and lower_to_address ctx (e : Typed.expr) disp : Ir.address =
  match e.desc with
  | Typed.Decay inner -> begin
    (* address of the array lvalue *)
    match lower_place ctx inner with
    | Pmem (addr, _, _) -> offset_address ctx addr disp
    | Preg _ ->
      err ~ctx:(loc ~line:e.Typed.line ctx)
        "array value has register storage; decay needs memory"
  end
  | Typed.Addr_of inner -> begin
    match lower_place ctx inner with
    | Pmem (addr, _, _) -> offset_address ctx addr disp
    | Preg _ ->
      err ~ctx:(loc ~line:e.Typed.line ctx)
        "address taken of a register-resident value"
  end
  | Typed.Binop (Ast.Add, p, i) when is_pointer p.ty && is_intlike i.ty ->
    index_address ctx p i (pointee_size ctx p.ty) disp
  | Typed.Binop (Ast.Add, i, p) when is_pointer p.ty && is_intlike i.ty ->
    lower_to_address ctx { e with desc = Typed.Binop (Ast.Add, p, i) } disp
  | Typed.Binop (Ast.Sub, p, i) when is_pointer p.ty && is_intlike i.ty ->
    let elem = pointee_size ctx p.ty in
    let iop = lower_value ctx i in
    (match iop with
    | Ir.Imm n -> lower_to_address ctx p (disp - (n * elem))
    | Ir.Reg _ ->
      let addr = lower_to_address ctx p disp in
      let scaled = scale_index ctx iop elem in
      let neg = emit_bin ctx Ir.Sub (Ir.Imm 0) scaled in
      combine_base_index ctx addr neg)
  | _ ->
    let v = lower_value ctx e in
    (match v with
    | Ir.Reg r -> Ir.Base (r, disp)
    | Ir.Imm n -> Ir.Abs (n + disp))

(* The address of [p\[i\]] (elements of [elem] bytes) plus [disp]; the
   index is evaluated first, then the base. *)
and index_address ctx p i elem disp =
  match lower_value ctx i with
  | Ir.Imm n -> lower_to_address ctx p (disp + (n * elem))
  | Ir.Reg _ as iop ->
    let addr = lower_to_address ctx p disp in
    combine_base_index ctx addr (scale_index ctx iop elem)

and combine_base_index ctx addr scaled =
  match (addr, scaled) with
  | addr, Ir.Imm n -> offset_address ctx addr n
  | Ir.Base (b, 0), Ir.Reg s -> Ir.Base_index (b, s)
  | addr, Ir.Reg s ->
    let bv = as_reg ctx (address_value ctx addr) in
    Ir.Base_index (bv, s)

and is_pointer = function Ast.Tptr _ -> true | _ -> false
and is_intlike = function Ast.Tint | Ast.Tchar -> true | _ -> false

and pointee_size ctx = function
  | Ast.Tptr t -> size_of ctx t
  | ty ->
    err ~ctx:(loc ctx)
      (Fmt.str "pointer arithmetic on non-pointer type %a" Ast.pp_ty ty)

(* Read a place. *)
and read_place ctx = function
  | Preg v -> Ir.Reg v
  | Pmem (addr, size, sign) ->
    let v = fresh ctx in
    emit ctx (Ir.Load { spec = Insn.Ld_n; size; sign; dst = v; addr });
    Ir.Reg v

(* Lower an expression to an operand (rvalue). *)
and lower_value ctx (e : Typed.expr) : Ir.operand =
  match e.desc with
  | Typed.Const n -> Ir.Imm n
  | Typed.Str label ->
    let v = fresh ctx in
    emit ctx (Ir.Global_addr (v, label));
    Ir.Reg v
  | Typed.Var _ | Typed.Index _ | Typed.Field _ | Typed.Deref _ ->
    read_place ctx (lower_place ctx e)
  | Typed.Decay _ | Typed.Addr_of _ ->
    address_value ctx (lower_to_address ctx e 0)
  | Typed.Unop (Ast.Neg, a) ->
    let a = lower_value ctx a in
    (match a with Ir.Imm n -> Ir.Imm (-n) | _ -> emit_bin ctx Ir.Sub (Ir.Imm 0) a)
  | Typed.Unop (Ast.Bnot, a) ->
    let a = lower_value ctx a in
    (match a with Ir.Imm n -> Ir.Imm (lnot n) | _ -> emit_bin ctx Ir.Xor a (Ir.Imm (-1)))
  | Typed.Unop (Ast.Lnot, a) ->
    let a = lower_value ctx a in
    emit_bin ctx Ir.Seq a (Ir.Imm 0)
  | Typed.Binop ((Ast.Land | Ast.Lor), _, _) | Typed.Cond _ ->
    lower_control_value ctx e
  | Typed.Binop (op, a, b) -> lower_binop ctx e.ty op a b
  | Typed.Assign (lhs, rhs) ->
    let place = lower_place ctx lhs in
    let v = lower_value ctx rhs in
    (match place with
    | Preg d ->
      emit ctx (Ir.Mov (d, v));
      Ir.Reg d
    | Pmem (addr, size, _) ->
      emit ctx (Ir.Store { size; src = v; addr });
      v)
  | Typed.Call (callee, args) ->
    let args = List.map (lower_value ctx) args in
    let dst = if e.ty = Ast.Tvoid then None else Some (fresh ctx) in
    emit ctx (Ir.Call { dst; callee; args });
    (match dst with Some d -> Ir.Reg d | None -> Ir.Imm 0)

and lower_binop ctx result_ty op a b =
  match op with
  | Ast.Add | Ast.Sub when is_pointer result_ty ->
    (* pointer arithmetic: produce the address value *)
    let elem = pointee_size ctx result_ty in
    let pe, ie, negate =
      if is_pointer a.Typed.ty then (a, b, op = Ast.Sub) else (b, a, false)
    in
    let pv = lower_value ctx pe in
    let iv = lower_value ctx ie in
    let scaled = scale_index ctx iv elem in
    let irop = if negate then Ir.Sub else Ir.Add in
    (match (pv, scaled) with
    | Ir.Imm p, Ir.Imm i -> Ir.Imm (if negate then p - i else p + i)
    | _ -> emit_bin ctx irop pv scaled)
  | Ast.Sub when is_pointer a.Typed.ty && is_pointer b.Typed.ty ->
    let elem = pointee_size ctx a.Typed.ty in
    let av = lower_value ctx a in
    let bv = lower_value ctx b in
    let diff = emit_bin ctx Ir.Sub av bv in
    if elem = 1 then diff
    else (
      match log2_exact elem with
      | Some k -> emit_bin ctx Ir.Sra diff (Ir.Imm k)
      | None -> emit_bin ctx Ir.Div diff (Ir.Imm elem))
  | _ ->
    let av = lower_value ctx a in
    let bv = lower_value ctx b in
    let simple irop = emit_bin ctx irop av bv in
    (match op with
    | Ast.Add -> simple Ir.Add
    | Ast.Sub -> simple Ir.Sub
    | Ast.Mul -> simple Ir.Mul
    | Ast.Div -> simple Ir.Div
    | Ast.Rem -> simple Ir.Rem
    | Ast.Shl -> simple Ir.Sll
    | Ast.Shr -> simple Ir.Sra
    | Ast.Band -> simple Ir.And
    | Ast.Bor -> simple Ir.Or
    | Ast.Bxor -> simple Ir.Xor
    | Ast.Eq -> simple Ir.Seq
    | Ast.Ne -> simple Ir.Sne
    | Ast.Lt -> simple Ir.Slt
    | Ast.Le -> simple Ir.Sle
    | Ast.Gt -> emit_bin ctx Ir.Slt bv av
    | Ast.Ge -> emit_bin ctx Ir.Sle bv av
    | Ast.Land | Ast.Lor -> assert false)

(* Short-circuit expressions and ?: as control flow into a result vreg. *)
and lower_control_value ctx (e : Typed.expr) =
  let result = fresh ctx in
  let done_l = fresh_label ctx "val_done" in
  (match e.desc with
  | Typed.Cond (c, t, f) ->
    let then_l = fresh_label ctx "cond_t" and else_l = fresh_label ctx "cond_f" in
    lower_branch ctx c ~ifso:then_l ~ifnot:else_l;
    start_block ctx then_l;
    let tv = lower_value ctx t in
    emit ctx (Ir.Mov (result, tv));
    terminate ctx (Ir.Jmp done_l);
    start_block ctx else_l;
    let fv = lower_value ctx f in
    emit ctx (Ir.Mov (result, fv));
    terminate ctx (Ir.Jmp done_l)
  | _ ->
    let true_l = fresh_label ctx "bool_t" and false_l = fresh_label ctx "bool_f" in
    lower_branch ctx e ~ifso:true_l ~ifnot:false_l;
    start_block ctx true_l;
    emit ctx (Ir.Mov (result, Ir.Imm 1));
    terminate ctx (Ir.Jmp done_l);
    start_block ctx false_l;
    emit ctx (Ir.Mov (result, Ir.Imm 0));
    terminate ctx (Ir.Jmp done_l));
  start_block ctx done_l;
  Ir.Reg result

(* Lower a boolean expression as a conditional branch. *)
and lower_branch ctx (e : Typed.expr) ~ifso ~ifnot =
  match e.desc with
  | Typed.Binop (Ast.Land, a, b) ->
    let mid = fresh_label ctx "and" in
    lower_branch ctx a ~ifso:mid ~ifnot;
    start_block ctx mid;
    lower_branch ctx b ~ifso ~ifnot
  | Typed.Binop (Ast.Lor, a, b) ->
    let mid = fresh_label ctx "or" in
    lower_branch ctx a ~ifso ~ifnot:mid;
    start_block ctx mid;
    lower_branch ctx b ~ifso ~ifnot
  | Typed.Unop (Ast.Lnot, a) -> lower_branch ctx a ~ifso:ifnot ~ifnot:ifso
  | Typed.Binop (op, a, b) when cond_of_binop op <> None ->
    let cond, swap =
      match cond_of_binop op with Some c -> c | None -> assert false
    in
    let av = lower_value ctx a in
    let bv = lower_value ctx b in
    let src1, src2 = if swap then (bv, av) else (av, bv) in
    terminate ctx (Ir.Br { cond; src1; src2; ifso; ifnot })
  | Typed.Const 0 -> terminate ctx (Ir.Jmp ifnot)
  | Typed.Const _ -> terminate ctx (Ir.Jmp ifso)
  | _ ->
    let v = lower_value ctx e in
    terminate ctx (Ir.Br { cond = Insn.Ne; src1 = v; src2 = Ir.Imm 0; ifso; ifnot })

(* --- statements ------------------------------------------------------ *)

let rec lower_stmt ctx (s : Typed.stmt) =
  match s with
  | Typed.Sexpr e -> ignore (lower_value ctx e)
  | Typed.Sdecl (local, init) -> begin
    match init with
    | None -> ()
    | Some e ->
      let v = lower_value ctx e in
      (match Hashtbl.find_opt ctx.storage local.Typed.local_id with
      | Some (Sreg d) -> emit ctx (Ir.Mov (d, v))
      | Some (Sslot slot) ->
        let size, sign =
          access_of_ty ~ctx:(loc ~line:e.Typed.line ctx) local.Typed.local_ty
        in
        ignore sign;
        emit ctx (Ir.Store { size; src = v; addr = slot_address ctx slot })
      | None ->
        err ~ctx:(loc ~line:e.Typed.line ctx)
          ("initializer for local without storage: " ^ local.Typed.local_name))
  end
  | Typed.Sif (c, t, f) ->
    let then_l = fresh_label ctx "then" in
    let else_l = fresh_label ctx "else" in
    let end_l = fresh_label ctx "endif" in
    lower_branch ctx c ~ifso:then_l ~ifnot:(if f = [] then end_l else else_l);
    start_block ctx then_l;
    List.iter (lower_stmt ctx) t;
    terminate ctx (Ir.Jmp end_l);
    if f <> [] then begin
      start_block ctx else_l;
      List.iter (lower_stmt ctx) f;
      terminate ctx (Ir.Jmp end_l)
    end;
    start_block ctx end_l
  | Typed.Sblock body -> List.iter (lower_stmt ctx) body
  | Typed.Sloop { cond; body; step; post_test } ->
    let head_l = fresh_label ctx "loop_head" in
    let body_l = fresh_label ctx "loop_body" in
    let step_l = if step = [] then head_l else fresh_label ctx "loop_step" in
    let exit_l = fresh_label ctx "loop_exit" in
    ctx.break_labels <- exit_l :: ctx.break_labels;
    ctx.continue_labels <- step_l :: ctx.continue_labels;
    if post_test then terminate ctx (Ir.Jmp body_l)
    else terminate ctx (Ir.Jmp head_l);
    start_block ctx head_l;
    lower_branch ctx cond ~ifso:body_l ~ifnot:exit_l;
    start_block ctx body_l;
    List.iter (lower_stmt ctx) body;
    if step <> [] then begin
      terminate ctx (Ir.Jmp step_l);
      start_block ctx step_l;
      List.iter (lower_stmt ctx) step
    end;
    terminate ctx (Ir.Jmp head_l);
    ctx.break_labels <- List.tl ctx.break_labels;
    ctx.continue_labels <- List.tl ctx.continue_labels;
    start_block ctx exit_l
  | Typed.Sreturn e ->
    let op = Option.map (lower_value ctx) e in
    terminate ctx (Ir.Ret op)
  | Typed.Sbreak -> begin
    match ctx.break_labels with
    | l :: _ -> terminate ctx (Ir.Jmp l)
    | [] -> err ~ctx:(loc ctx) "break outside of any loop"
  end
  | Typed.Scontinue -> begin
    match ctx.continue_labels with
    | l :: _ -> terminate ctx (Ir.Jmp l)
    | [] -> err ~ctx:(loc ctx) "continue outside of any loop"
  end

(* --- functions and programs ------------------------------------------ *)

let needs_slot (l : Typed.local) =
  l.Typed.addr_taken
  ||
  match l.Typed.local_ty with
  | Ast.Tarray _ | Ast.Tstruct _ -> true
  | _ -> false

let lower_func structs (tf : Typed.func) : Ir.func =
  let f =
    { Ir.name = tf.Typed.name
    ; params = []
    ; blocks = []
    ; slots = []
    ; next_vreg = 0
    ; next_label = 0 }
  in
  let ctx =
    { f
    ; structs
    ; storage = Hashtbl.create 16
    ; cur_label = tf.Typed.name ^ ".entry"
    ; cur_insts = []
    ; finished = []
    ; terminated = false
    ; break_labels = []
    ; continue_labels = [] }
  in
  (* Parameters arrive in fresh vregs, in order. *)
  let param_vregs = List.map (fun _ -> fresh ctx) tf.Typed.params in
  (* Assign storage for every local. *)
  List.iter
    (fun (l : Typed.local) ->
      if needs_slot l then begin
        let size = Structs.size_of structs l.Typed.local_ty in
        let align = Structs.align_of structs l.Typed.local_ty in
        let slot = Ir.add_slot f ~size:(max size 1) ~align in
        Hashtbl.replace ctx.storage l.Typed.local_id (Sslot slot)
      end
      else if Typed.is_scalar l.Typed.local_ty then
        Hashtbl.replace ctx.storage l.Typed.local_id (Sreg (fresh ctx)))
    tf.Typed.locals;
  (* Copy register parameters into their storage. *)
  List.iter2
    (fun (l : Typed.local) pv ->
      match Hashtbl.find_opt ctx.storage l.Typed.local_id with
      | Some (Sreg d) -> emit ctx (Ir.Mov (d, Ir.Reg pv))
      | Some (Sslot slot) ->
        let size, _ = access_of_ty ~ctx:(loc ctx) l.Typed.local_ty in
        emit ctx (Ir.Store { size; src = Ir.Reg pv; addr = slot_address ctx slot })
      | None -> ())
    tf.Typed.params param_vregs;
  List.iter (lower_stmt ctx) tf.Typed.body;
  (* Implicit return. *)
  if not ctx.terminated then
    terminate ctx
      (Ir.Ret (if tf.Typed.return_ty = Ast.Tvoid then None else Some (Ir.Imm 0)));
  f.Ir.params <- param_vregs;
  f.Ir.blocks <- List.rev ctx.finished;
  f

let global_data structs (name, ty, init) : Ir.data =
  let size = Structs.size_of structs ty in
  let align = Structs.align_of structs ty in
  let pad_words ws n =
    let have = List.length ws in
    if have >= n then List.filteri (fun i _ -> i < n) ws
    else ws @ List.init (n - have) (fun _ -> 0)
  in
  let data_init =
    match (init, ty) with
    | None, _ -> Layout.Zeros (max size 1)
    | Some (Ast.Init_int n), Ast.Tchar -> Layout.Bytes (String.make 1 (Char.chr (n land 0xff)))
    | Some (Ast.Init_int n), _ -> Layout.Words [ n ]
    | Some (Ast.Init_list ws), Ast.Tarray (Ast.Tchar, n) ->
      let bytes = List.map (fun w -> Char.chr (w land 0xff)) ws in
      let s = String.init n (fun i ->
        match List.nth_opt bytes i with Some c -> c | None -> '\000')
      in
      Layout.Bytes s
    | Some (Ast.Init_list ws), Ast.Tarray (_, n) -> Layout.Words (pad_words ws n)
    | Some (Ast.Init_list ws), _ -> Layout.Words ws
    | Some (Ast.Init_string s), Ast.Tarray (Ast.Tchar, n) ->
      let str = String.init n (fun i ->
        if i < String.length s then s.[i] else '\000')
      in
      Layout.Bytes str
    | Some (Ast.Init_string s), _ -> Layout.Bytes (s ^ "\000")
  in
  { Ir.data_label = name; data_align = align; data_init }

let lower_program (tp : Typed.program) : Ir.program =
  let data =
    List.map (global_data tp.Typed.structs) tp.Typed.globals
    @ List.map
        (fun (label, contents) ->
          { Ir.data_label = label; data_align = 1; data_init = Layout.Bytes (contents ^ "\000") })
        tp.Typed.strings
  in
  { Ir.data; funcs = List.map (lower_func tp.Typed.structs) tp.Typed.funcs }
