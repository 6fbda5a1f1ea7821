(* Little-endian byte-addressable memory, demand-paged.

   The address space is [size] bytes split into 4 KiB pages.  Every
   page starts out as the shared, never-written [zero_page]; the first
   write to a page gives it its own zeroed bytes.  Creating a memory
   therefore costs one page table, not [size] zeroed bytes, and a
   program that touches a few KB pays for a few pages.  [reset] zeroes
   the pages that have their own bytes and keeps them, so a memory
   reused for another run allocates nothing for the pages it touched
   before.  Bounds are checked against [size] exactly as for a flat
   array. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* Shared by every memory in every domain; only ever read. *)
let zero_page = Bytes.make page_size '\000'

type t =
  { pages : Bytes.t array
  ; size : int
  ; mutable owned : int list  (* pages that have their own bytes *) }

exception Fault of int

let default_size = 16 * 1024 * 1024

let reset t = List.iter (fun i -> Bytes.fill t.pages.(i) 0 page_size '\000') t.owned

let create ?(size = default_size) () =
  let pages = Array.make ((size + page_mask) lsr page_bits) zero_page in
  let t = { pages; size; owned = [] } in
  reset t;
  t

let size t = t.size

let check t addr n = if addr < 0 || addr + n > t.size then raise (Fault addr)

(* The page holding [addr], given its own bytes on first write. *)
let writable_page t addr =
  let i = addr lsr page_bits in
  let p = Array.unsafe_get t.pages i in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    Array.unsafe_set t.pages i p;
    t.owned <- i :: t.owned;
    p
  end

(* Unchecked single-byte accesses; callers check bounds first, and a
   multi-byte access goes byte by byte, so it may straddle pages. *)
let get t addr =
  Char.code
    (Bytes.unsafe_get (Array.unsafe_get t.pages (addr lsr page_bits)) (addr land page_mask))

let set t addr v =
  Bytes.unsafe_set (writable_page t addr) (addr land page_mask)
    (Char.unsafe_chr (v land 0xff))

let read_byte_u t addr =
  check t addr 1;
  get t addr

let read_byte_s t addr =
  let v = read_byte_u t addr in
  if v >= 0x80 then v - 0x100 else v

let read_half_u t addr =
  check t addr 2;
  get t addr lor (get t (addr + 1) lsl 8)

let read_half_s t addr =
  let v = read_half_u t addr in
  if v >= 0x8000 then v - 0x10000 else v

let read_word t addr =
  check t addr 4;
  let v =
    get t addr
    lor (get t (addr + 1) lsl 8)
    lor (get t (addr + 2) lsl 16)
    lor (get t (addr + 3) lsl 24)
  in
  Elag_isa.Alu.norm v

let write_byte t addr v =
  check t addr 1;
  set t addr v

let write_half t addr v =
  check t addr 2;
  set t addr v;
  set t (addr + 1) (v lsr 8)

let write_word t addr v =
  check t addr 4;
  set t addr v;
  set t (addr + 1) (v lsr 8);
  set t (addr + 2) (v lsr 16);
  set t (addr + 3) (v asr 24)

(* Blit page by page; an all-zero chunk landing on a page never
   written is already there, so zero-filled regions cost no pages. *)
let load_image t image =
  List.iter
    (fun (addr, bytes) ->
      let n = String.length bytes in
      check t addr n;
      let off = ref 0 in
      while !off < n do
        let a = addr + !off in
        let o = a land page_mask in
        let len = min (n - !off) (page_size - o) in
        let rec zeros i = i = len || (bytes.[!off + i] = '\000' && zeros (i + 1)) in
        if not (t.pages.(a lsr page_bits) == zero_page && zeros 0) then
          Bytes.blit_string bytes !off (writable_page t a) o len;
        off := !off + len
      done)
    image
