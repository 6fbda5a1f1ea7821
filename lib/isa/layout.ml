(* Static data layout.

   Assigns byte addresses to global data labels before code generation,
   so the code generator can materialize absolute addresses.  Produces
   the initial memory image consumed by the emulator. *)

type init =
  | Zeros of int
  | Words of int list
  | Bytes of string

type entry = { address : int; init : init }

type t =
  { mutable next : int
  ; symbols : (string, entry) Hashtbl.t
  ; mutable order : string list }

let default_base = 0x1000

(* Reserved word just below the data segment where the emulator
   publishes the heap base; the MiniC runtime's allocator reads it. *)
let heap_pointer_slot = default_base - 4

let create () = { next = default_base; symbols = Hashtbl.create 64; order = [] }

let init_size = function
  | Zeros n -> n
  | Words ws -> 4 * List.length ws
  | Bytes s -> String.length s

let align_up n align = (n + align - 1) / align * align

let add t ~label ~align ~init =
  if Hashtbl.mem t.symbols label then
    invalid_arg (Printf.sprintf "Layout.add: duplicate label %s" label);
  let address = align_up t.next (max 1 align) in
  t.next <- address + init_size init;
  Hashtbl.replace t.symbols label { address; init };
  t.order <- label :: t.order;
  address

let address t label =
  match Hashtbl.find_opt t.symbols label with
  | Some { address; _ } -> address
  | None -> invalid_arg (Printf.sprintf "Layout.address: unknown label %s" label)

let mem t label = Hashtbl.mem t.symbols label

let heap_base t = align_up t.next 16

let bytes_of_init = function
  | Zeros n -> String.make n '\000'
  | Bytes s -> s
  | Words ws ->
    let b = Buffer.create (4 * List.length ws) in
    let emit w =
      for i = 0 to 3 do
        Buffer.add_char b (Char.chr ((w lsr (8 * i)) land 0xff))
      done
    in
    List.iter emit ws;
    Buffer.contents b

let image t =
  List.rev_map
    (fun label ->
      let { address; init } = Hashtbl.find t.symbols label in
      (address, bytes_of_init init))
    t.order
