(* Set-associative cache model with LRU replacement (tags only — data
   correctness is the emulator's job).  The paper's configuration is
   direct-mapped ([ways = 1], the default); higher associativity is
   available for the ablation benches.  [probe] is pure; [access]
   fills on a miss. *)

type t =
  { line_bits : int
  ; sets : int
  ; ways : int
  ; tags : int array       (* sets*ways entries, -1 = invalid *)
  ; stamps : int array     (* LRU timestamps, parallel to tags *)
  ; mutable clock : int
  ; mutable accesses : int
  ; mutable misses : int }

let log2 n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

(* Every line invalid, every counter zero. *)
let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0;
  t.accesses <- 0;
  t.misses <- 0

let create ?(ways = 1) ~size_bytes ~line_bytes () =
  if
    size_bytes <= 0 || line_bytes <= 0 || ways <= 0
    || size_bytes mod (line_bytes * ways) <> 0
  then invalid_arg "Cache.create";
  let sets = size_bytes / line_bytes / ways in
  let t =
    { line_bits = log2 line_bytes
    ; sets
    ; ways
    ; tags = Array.make (sets * ways) 0
    ; stamps = Array.make (sets * ways) 0
    ; clock = 0
    ; accesses = 0
    ; misses = 0 }
  in
  reset t;
  t

(* Index of the way holding [line] in its set, or -1. *)
let find_way t line =
  let base = line mod t.sets * t.ways in
  let stop = base + t.ways in
  let i = ref base in
  while !i < stop && Array.unsafe_get t.tags !i <> line do
    incr i
  done;
  if !i < stop then !i else -1

let line t addr = addr lsr t.line_bits

(* Pure hit test: no statistics, no fill, no LRU update. *)
let probe t addr = find_way t (line t addr) >= 0

let victim_way t set =
  let base = set * t.ways in
  let best = ref base in
  for w = 1 to t.ways - 1 do
    if t.stamps.(base + w) < t.stamps.(!best) then best := base + w
  done;
  !best

(* A load-side access: counts, updates LRU, fills the line on a miss. *)
let access t addr =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let line = line t addr in
  let i = find_way t line in
  if i >= 0 then begin
    t.stamps.(i) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let v = victim_way t (line mod t.sets) in
    t.tags.(v) <- line;
    t.stamps.(v) <- t.clock;
    false
  end

(* A store-side access: write-through, no write-allocate. *)
let access_store t addr =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let i = find_way t (line t addr) in
  if i >= 0 then begin
    t.stamps.(i) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

let stats t = (t.accesses, t.misses)
