(* Cycle-based timing model of the six-stage in-order superscalar
   pipeline (IF ID1 ID2 EXE MEM WB) with dual early-address-generation
   support.

   The model is emulation-driven: it consumes the retirement stream
   from {!Emulator} in program order and computes the issue cycle of
   every instruction subject to issue width, functional-unit limits,
   operand readiness (full bypass), data-cache ports, branch
   prediction, and cache misses.

   Timing conventions — an instruction issued at cycle [c] occupies
   ID1 at [c-2], ID2 at [c-1], EXE at [c], MEM at [c+1]:
   - ALU results feed dependents issued at [c+1];
   - a normal load's value feeds dependents at [c+2] (the one-cycle
     load-use stall of Figure 1a), plus 12 cycles on a D-cache miss;
   - an [ld_p] speculative access probes the table in ID1 and accesses
     the cache in ID2 ([c-1]); verified against the computed address at
     the end of EXE, a correct prediction feeds dependents at [c+1]
     (latency 1);
   - an [ld_e] access computes R_addr+offset in ID1 and accesses the
     cache in ID2; since no late verification is needed, a successful
     access feeds dependents at [c] (latency 0);
   - speculative accesses consume a data-cache port at [c-1]; wrong
     speculation wastes only that bandwidth (the paper's "extra load").

   Telemetry: besides the flat {!stats} record the model attributes
   every non-issuing cycle to a {!Elag_telemetry.Stall.t} cause and
   keeps a per-static-load table ({!load_site}) so reproduction gaps
   can be localized to individual loads.  Each event is counted once,
   where it happens: load, speculation and load-latency counts per
   site, cache accesses and misses in {!Cache}, mispredictions in the
   {!Btb}; {!stats} and {!load_latency_histogram} read them from
   there.  Attribution charges the binding (latest) constraint:
   operand-readiness cycles go to the cause recorded when the
   producing register was written (load-use / dcache-miss /
   raw-dependence), front-end cycles to the event that last pushed
   [fetch_ready] (icache-miss / btb-mispredict, with
   startup pipeline fill folded into the former since the first fetch
   is always a cold miss), and cycles spent searching past the operand
   bound for a free data-cache port to port-contention.  The final
   drain — cycles between the last issue and the last writeback — is
   charged to the cause of the instruction that finishes last.  By
   construction [busy_cycles + Σ stall_breakdown = stats.cycles]. *)

module Insn = Elag_isa.Insn
module Program = Elag_isa.Program
module Reg = Elag_isa.Reg
module Addr_table = Elag_predict.Addr_table
module Bric = Elag_predict.Bric
module Btb = Elag_predict.Btb
module Stall = Elag_telemetry.Stall
module Histogram = Elag_telemetry.Histogram

type stats =
  { mutable cycles : int
  ; mutable instructions : int
  ; mutable loads : int
  ; mutable stores : int
  ; mutable loads_n : int
  ; mutable loads_p : int
  ; mutable loads_e : int
  ; mutable table_attempts : int  (* speculative accesses via the table *)
  ; mutable table_successes : int
  ; mutable calc_attempts : int   (* speculative accesses via early calc *)
  ; mutable calc_successes : int
  ; mutable wasted_spec : int     (* dispatched but not forwarded *)
  ; mutable load_latency_sum : int
  ; mutable icache_misses : int
  ; mutable dcache_accesses : int
  ; mutable dcache_misses : int
  ; mutable btb_mispredicts : int }

type load_site =
  { site_pc : int
  ; site_spec : Insn.load_spec
  ; mutable site_table_attempts : int
  ; mutable site_table_successes : int
  ; mutable site_calc_attempts : int
  ; mutable site_calc_successes : int
  ; mutable site_wasted_spec : int
  ; mutable site_dcache_misses : int
  ; site_latency : Histogram.t }

let new_site pc spec =
  { site_pc = pc
  ; site_spec = spec
  ; site_table_attempts = 0
  ; site_table_successes = 0
  ; site_calc_attempts = 0
  ; site_calc_successes = 0
  ; site_wasted_spec = 0
  ; site_dcache_misses = 0
  ; site_latency = Histogram.create ~bounds:Histogram.load_latency_bounds }

let clear_site site =
  site.site_table_attempts <- 0;
  site.site_table_successes <- 0;
  site.site_calc_attempts <- 0;
  site.site_calc_successes <- 0;
  site.site_wasted_spec <- 0;
  site.site_dcache_misses <- 0;
  Histogram.reset site.site_latency

type path = No_path | Table_path | Calc_path

let ring_size = 1024
let ring_mask = ring_size - 1

(* The structures [cfg] sizes are mutable so that {!reset} can swap in
   one of another size.  [create] builds them fresh, each reset by its
   own [create] and not again; [create] and [reset] both end in
   [clear], so every initial value is defined in one place. *)
type t =
  { mutable cfg : Config.t
  ; mutable icache : Cache.t
  ; mutable dcache : Cache.t
  ; mutable btb : Btb.t
  ; mutable table : Addr_table.t option
  ; mutable bric : Bric.t option  (* R_addr under [Dual], the BRIC under [Calc_only] *)
  ; reg_ready : int array
  ; reg_cause : Stall.t array  (* why waiting on this register stalls *)
  ; port_cycle : int array  (* ring: which cycle this slot describes *)
  ; port_count : int array
  ; mutable cur_cycle : int
  ; mutable slots_used : int
  ; mutable alus_used : int
  ; mutable branches_used : int
  ; mutable fetch_ready : int
  ; mutable fetch_cause : Stall.t  (* why waiting on the front end stalls *)
  ; mutable bound : Program.t option  (* the program [sites] describe *)
  ; mutable sites : load_site array  (* by load number of [bound] *)
  (* in-flight stores, a FIFO ring in issue order: slots
     [st_head, st_head + st_len) modulo the capacity *)
  ; mutable st_cycle : int array
  ; mutable st_addr : int array
  ; mutable st_bytes : int array
  ; mutable st_head : int
  ; mutable st_len : int
  (* the candidate issue cycle's early path and speculative access,
     written by [select_path]/[eval_spec] and reused at commit *)
  ; mutable sel_path : path
  ; mutable ev_dispatched : bool
  ; mutable ev_access_cycle : int  (* cycle the speculative access occupies *)
  ; mutable ev_addr : int  (* address it reads: the prediction or eff *)
  ; mutable ev_success : bool
  ; mutable ev_latency : int  (* result latency when it succeeds *)
  ; mutable tracer : (int -> Insn.t -> int -> int -> unit) option
    (* pc, insn, issue cycle, result latency — for visualization *)
  ; mutable last_issue : int   (* most recent cycle an instruction issued *)
  ; mutable busy_cycles : int  (* distinct cycles with >= 1 issue *)
  ; stall_cycles : int array   (* indexed by Stall.index *)
  ; mutable drain_cause : Stall.t  (* cause of the latest writeback *)
  (* the only {!stats} fields kept here: [stats] sums the load fields
     from [sites] and reads the cache and BTB fields from the
     structures that count them *)
  ; mutable n_cycles : int  (* the latest writeback *)
  ; mutable n_instructions : int
  ; mutable n_stores : int }

let table_entries (cfg : Config.t) =
  match cfg.mechanism with
  | Config.Table_only { entries; _ } -> Some entries
  | Config.Dual { table_entries; _ } -> Some table_entries
  | Config.No_early | Config.Calc_only _ -> None

(* R_addr (paper §3.2.1) is a one-entry base-register cache *)
let bric_entries (cfg : Config.t) =
  match cfg.mechanism with
  | Config.Calc_only { bric_entries } -> Some bric_entries
  | Config.Dual _ -> Some 1
  | Config.No_early | Config.Table_only _ -> None

(* A store issues only with a free port the next cycle, so at most
   [mem_ports] stores share an issue cycle, and the window (see
   [process]) spans three issue cycles. *)
let store_window (cfg : Config.t) =
  let rec pow2 k = if k >= 3 * cfg.mem_ports then k else pow2 (2 * k) in
  pow2 1

let cache (cfg : Config.t) size_bytes =
  Cache.create ~ways:cfg.cache_ways ~size_bytes ~line_bytes:cfg.line_bytes ()

(* The pipeline's own state, apart from the structures its config
   sizes: the one place it is initialized.  The store window's slots
   and the candidate cycle's scratch ([sel_path], [ev_*]) need no
   clearing: no slot or scratch field is read before it is written. *)
let clear t =
  Array.fill t.reg_ready 0 Reg.count 0;
  Array.fill t.reg_cause 0 Reg.count Stall.Raw_dependence;
  Array.fill t.port_cycle 0 ring_size (-1);
  Array.fill t.port_count 0 ring_size 0;
  t.cur_cycle <- 4 (* leave room for stage offsets at startup *);
  t.slots_used <- 0;
  t.alus_used <- 0;
  t.branches_used <- 0;
  t.fetch_ready <- 4;
  t.fetch_cause <- Stall.Icache_miss (* startup fill = frontend *);
  Array.iter clear_site t.sites;
  t.st_head <- 0;
  t.st_len <- 0;
  t.tracer <- None;
  t.last_issue <- -1;
  t.busy_cycles <- 0;
  Array.fill t.stall_cycles 0 Stall.cardinal 0;
  t.drain_cause <- Stall.Raw_dependence;
  t.n_cycles <- 0;
  t.n_instructions <- 0;
  t.n_stores <- 0

(* Re-arm [t] for [cfg].  Every structure [cfg] gives the same size is
   reset in place and every other one allocated, born reset by its own
   [create]; the bound program's sites are kept and zeroed. *)
let reset t (cfg : Config.t) =
  let old = t.cfg in
  t.cfg <- cfg;
  let same_lines = old.cache_ways = cfg.cache_ways && old.line_bytes = cfg.line_bytes in
  if same_lines && old.icache_bytes = cfg.icache_bytes then Cache.reset t.icache
  else t.icache <- cache cfg cfg.icache_bytes;
  if same_lines && old.dcache_bytes = cfg.dcache_bytes then Cache.reset t.dcache
  else t.dcache <- cache cfg cfg.dcache_bytes;
  if Btb.size t.btb = cfg.btb_entries then Btb.reset t.btb
  else t.btb <- Btb.create cfg.btb_entries;
  (t.table <-
     match (t.table, table_entries cfg) with
     | Some table, Some n when Addr_table.size table = n ->
       Addr_table.reset table;
       t.table
     | _, n -> Option.map Addr_table.create n);
  (t.bric <-
     match (t.bric, bric_entries cfg) with
     | Some bric, Some n when Bric.capacity bric = n ->
       Bric.reset bric;
       t.bric
     | _, n -> Option.map Bric.create n);
  let window = store_window cfg in
  if Array.length t.st_cycle <> window then begin
    t.st_cycle <- Array.make window 0;
    t.st_addr <- Array.make window 0;
    t.st_bytes <- Array.make window 0
  end;
  clear t

let create (cfg : Config.t) =
  let window = store_window cfg in
  let t =
    { cfg
    ; icache = cache cfg cfg.icache_bytes
    ; dcache = cache cfg cfg.dcache_bytes
    ; btb = Btb.create cfg.btb_entries
    ; table = Option.map Addr_table.create (table_entries cfg)
    ; bric = Option.map Bric.create (bric_entries cfg)
    ; reg_ready = Array.make Reg.count 0
    ; reg_cause = Array.make Reg.count Stall.Raw_dependence
    ; port_cycle = Array.make ring_size 0
    ; port_count = Array.make ring_size 0
    ; cur_cycle = 0
    ; slots_used = 0
    ; alus_used = 0
    ; branches_used = 0
    ; fetch_ready = 0
    ; fetch_cause = Stall.Icache_miss
    ; bound = None
    ; sites = [||]
    ; st_cycle = Array.make window 0
    ; st_addr = Array.make window 0
    ; st_bytes = Array.make window 0
    ; st_head = 0
    ; st_len = 0
    ; sel_path = No_path
    ; ev_dispatched = false
    ; ev_access_cycle = 0
    ; ev_addr = 0
    ; ev_success = false
    ; ev_latency = 0
    ; tracer = None
    ; last_issue = 0
    ; busy_cycles = 0
    ; stall_cycles = Array.make Stall.cardinal 0
    ; drain_cause = Stall.Raw_dependence
    ; n_cycles = 0
    ; n_instructions = 0
    ; n_stores = 0 }
  in
  clear t;
  t

(* Integer-specialized [max]/[min]: the polymorphic ones go through the
   generic comparison. *)
let imax (a : int) b = if a >= b then a else b
let imin (a : int) b = if a <= b then a else b

(* Give [p] its load sites, one per load number.  Sites are bound on
   the first retire of a program and kept across {!reset}. *)
let bind t p =
  t.bound <- Some p;
  t.sites <-
    Array.init (Program.load_count p) (fun k ->
        new_site (Program.load_pc p k) (Program.load_spec p k))

(* --- data-cache port ring ------------------------------------------- *)

let ports_used t cycle =
  let i = cycle land ring_mask in
  if t.port_cycle.(i) = cycle then t.port_count.(i) else 0

let port_free t cycle = ports_used t cycle < t.cfg.mem_ports

let book_port t cycle =
  let i = cycle land ring_mask in
  if t.port_cycle.(i) <> cycle then begin
    t.port_cycle.(i) <- cycle;
    t.port_count.(i) <- 0
  end;
  t.port_count.(i) <- t.port_count.(i) + 1

(* --- store interlocks ------------------------------------------------ *)

let overlap a1 n1 a2 n2 = not (a1 + n1 <= a2 || a2 + n2 <= a1)

(* Drop in-flight stores issued before [cycle].  Issue cycles never
   decrease, so the ring is in issue-cycle order and those stores are
   exactly its oldest entries. *)
let prune_stores t cycle =
  let mask = Array.length t.st_cycle - 1 in
  while t.st_len > 0 && t.st_cycle.(t.st_head) < cycle do
    t.st_head <- (t.st_head + 1) land mask;
    t.st_len <- t.st_len - 1
  done

let push_store t cycle addr bytes =
  let cap = Array.length t.st_cycle in
  if t.st_len = cap then failwith "Pipeline: in-flight store window overflow";
  let k = (t.st_head + t.st_len) land (cap - 1) in
  t.st_cycle.(k) <- cycle;
  t.st_addr.(k) <- addr;
  t.st_bytes.(k) <- bytes;
  t.st_len <- t.st_len + 1

(* Conservative memory interlock for a speculative access reading the
   cache during cycle [read_cycle]: a store issued at [read_cycle] or
   later has an unresolved address (interlock); one issued the cycle
   before races with the read and interlocks when the ranges overlap;
   older stores have completed their write-through and leave the
   window for good. *)
let mem_interlock t ~read_cycle spec_addr spec_bytes =
  prune_stores t (read_cycle - 1);
  let mask = Array.length t.st_cycle - 1 in
  let hit = ref false and i = ref 0 in
  while (not !hit) && !i < t.st_len do
    let k = (t.st_head + !i) land mask in
    hit :=
      t.st_cycle.(k) >= read_cycle
      || overlap t.st_addr.(k) t.st_bytes.(k) spec_addr spec_bytes;
    incr i
  done;
  !hit

(* --- issue-cycle bookkeeping ----------------------------------------- *)

let advance_to t c =
  if c > t.cur_cycle then begin
    t.cur_cycle <- c;
    t.slots_used <- 0;
    t.alus_used <- 0;
    t.branches_used <- 0
  end

let structural_ok t c ~alu ~branch =
  if c > t.cur_cycle then true
  else
    t.slots_used < t.cfg.issue_width
    && ((not alu) || t.alus_used < t.cfg.int_alus)
    && ((not branch) || t.branches_used < t.cfg.branch_units)

(* --- telemetry helpers ------------------------------------------------ *)

let charge t cause n =
  let i = Stall.index cause in
  t.stall_cycles.(i) <- t.stall_cycles.(i) + n

(* Raise [fetch_ready], remembering the responsible cause only when the
   bound actually moves (a smaller refill never becomes the binding
   constraint). *)
let bump_fetch t cycle cause =
  if cycle > t.fetch_ready then begin
    t.fetch_ready <- cycle;
    t.fetch_cause <- cause
  end

(* --- speculation evaluation ------------------------------------------ *)

(* Early-calculation timing is elastic in an in-order pipeline: the
   dedicated adder computes base+offset during the first cycle the base
   value is visible to R_addr/BRIC (never earlier than the load's ID1),
   and the speculative access goes out the following cycle.  The early
   path is profitable only when that access completes no later than the
   EXE stage of the load itself; a base register that becomes ready
   exactly at EXE (the paper's Figure 1c worst case) gains nothing and
   is suppressed as an R_addr interlock. *)
let calc_access_cycle t c base = 1 + imax (c - 2) t.reg_ready.(base)

(* Evaluate the load's speculative access at candidate issue cycle [c]
   along [t.sel_path], into the [ev_*] fields.  Touches no predictor
   state, so the chosen cycle's result stands at commit. *)
let eval_spec t c p pc eff =
  t.ev_dispatched <- false;
  t.ev_success <- false;
  match t.sel_path with
  | No_path -> ()
  | Table_path -> begin
    match t.table with
    | Some table when Addr_table.hit table pc ->
      (* PC-indexed prediction is available at ID1; the speculative
         access occupies the cache during ID2 and is verified against
         the computed address at the end of EXE: latency 1. *)
      let access_cycle = c - 1 in
      if port_free t access_cycle then begin
        let pa = Addr_table.predicted_address table pc in
        t.ev_dispatched <- true;
        t.ev_access_cycle <- access_cycle;
        t.ev_addr <- pa;
        t.ev_latency <- 1;
        t.ev_success <-
          pa = eff
          && Cache.probe t.dcache pa
          && not (mem_interlock t ~read_cycle:access_cycle pa (Program.width p pc))
      end
    | _ -> ()
  end
  | Calc_path ->
    let base = Program.base p pc in
    if base >= 0 then begin
      let structure_hit =
        match t.bric with Some b -> Bric.peek b ~cycle:(c - 2) base | None -> false
      in
      let access_cycle = calc_access_cycle t c base in
      if structure_hit && access_cycle <= c && port_free t access_cycle then begin
        t.ev_dispatched <- true;
        t.ev_access_cycle <- access_cycle;
        t.ev_addr <- eff;
        t.ev_latency <- imax 0 (access_cycle + 1 - c);
        t.ev_success <-
          Cache.probe t.dcache eff
          && not (mem_interlock t ~read_cycle:access_cycle eff (Program.width p pc))
      end
    end

(* Which early path does this load take at candidate cycle [c] under
   the configured mechanism?  Sets [t.sel_path]. *)
let select_path t c p pc load =
  t.sel_path <-
    (match t.cfg.mechanism with
    | Config.No_early -> No_path
    | Config.Table_only { compiler_filtered; _ } ->
      if (not compiler_filtered) || Program.load_spec p load = Insn.Ld_p then Table_path
      else No_path
    | Config.Calc_only _ -> Calc_path
    | Config.Dual { selection = Config.Compiler_directed; _ } -> begin
      match Program.load_spec p load with
      | Insn.Ld_p -> Table_path
      | Insn.Ld_e -> Calc_path
      | Insn.Ld_n -> No_path
    end
    | Config.Dual { selection = Config.Hardware_selected; _ } ->
      (* Run-time selection over the same hardware (Eickemeyer–
         Vassiliadis rule): a base register interlocked at decode sends
         the load to the prediction table (allocating an entry);
         otherwise it takes the early-calculation path through R_addr,
         rebinding it.  With no compiler guidance, every calc-path load
         competes for the single R_addr binding. *)
      let base = Program.base p pc in
      if base < 0 || t.reg_ready.(base) > c - 2 then Table_path else Calc_path)

(* --- per-instruction processing --------------------------------------- *)

(* Allocation-free: no closures, no tuples, no options; all per-load
   state lives in [t]'s mutable fields and the static facts in [p]'s
   tables. *)
let process t p pc eff taken next_pc =
  (match t.bound with Some q when q == p -> () | _ -> bind t p);
  let op = Program.op p pc in
  let load = Program.load_index p pc in
  t.n_instructions <- t.n_instructions + 1;
  (* instruction fetch *)
  if not (Cache.access t.icache (pc lsl 2)) then
    bump_fetch t (imax t.fetch_ready t.cur_cycle + t.cfg.miss_penalty)
      Stall.Icache_miss;
  let alu = match op with Program.Single_cycle | Multiply | Divide -> true | _ -> false in
  let branch = match op with Program.Predicted | Direct -> true | _ -> false in
  let store = match op with Program.Store -> true | _ -> false in
  let sources_ready = ref 0 in
  let sources_cause = ref Stall.Raw_dependence in
  let srcs = ref (Program.sources p pc) in
  while !srcs <> 0 do
    let r = !srcs land 63 in
    if t.reg_ready.(r) > !sources_ready then begin
      sources_ready := t.reg_ready.(r);
      sources_cause := t.reg_cause.(r)
    end;
    srcs := !srcs lsr 6
  done;
  let sources_ready = !sources_ready in
  let c0 = imax (imax t.fetch_ready sources_ready) t.cur_cycle in
  (* search for the issue cycle; a load evaluates its early path at
     every candidate, and the last evaluation is the chosen cycle's *)
  let c = ref c0 and searching = ref true in
  while !searching do
    let cc = !c in
    if not (structural_ok t cc ~alu ~branch) then c := cc + 1
    else if store then
      if port_free t (cc + 1) then searching := false else c := cc + 1
    else if load >= 0 then begin
      select_path t cc p pc load;
      eval_spec t cc p pc eff;
      if t.ev_success || port_free t (cc + 1) then searching := false
      else c := cc + 1
    end
    else searching := false
  done;
  let c = !c in
  (* stall attribution: charge every cycle between the previous issue
     and this one to its binding constraint.  [last_issue+1, c0) was
     bounded by operand readiness or the front end (whichever is
     latest); [c0, c) was spent searching for a free data-cache port. *)
  if c > t.last_issue then begin
    let gap_start = t.last_issue + 1 in
    let dep_end = imin c c0 in
    if dep_end > gap_start then begin
      let cause =
        if sources_ready >= t.fetch_ready && sources_ready > t.last_issue then
          !sources_cause
        else t.fetch_cause
      in
      charge t cause (dep_end - gap_start)
    end;
    let port_start = imax c0 gap_start in
    if c > port_start then charge t Stall.Port_contention (c - port_start);
    t.busy_cycles <- t.busy_cycles + 1;
    t.last_issue <- c
  end;
  advance_to t c;
  t.slots_used <- t.slots_used + 1;
  if alu then t.alus_used <- t.alus_used + 1;
  if branch then t.branches_used <- t.branches_used + 1;
  let latency =
    ref
      (match op with
      | Program.Multiply -> t.cfg.mul_latency
      | Divide -> t.cfg.div_latency
      | _ -> 1)
  in
  let def_cause = ref Stall.Raw_dependence in
  (* loads *)
  if load >= 0 then begin
    let site = t.sites.(load) in
    let base = Program.base p pc in
    let path = t.sel_path in
    (* commit structure probes: the decode-stage table probe (counted
       here, once, at the chosen cycle), or the calc path's probe of
       R_addr/BRIC, which (re)binds the base register *)
    (match path with
    | Table_path -> (
      match t.table with Some table -> ignore (Addr_table.probe table pc) | None -> ())
    | Calc_path when base >= 0 -> (
      match t.bric with
      | Some b -> ignore (Bric.probe b ~cycle:(c - 2) base)
      | None -> ())
    | Calc_path | No_path -> ());
    (* speculative dispatch effects *)
    let spec_missed_same_line = ref false in
    if t.ev_dispatched then begin
      book_port t t.ev_access_cycle;
      (* the speculative access touches the cache with its (possibly
         wrong) address; for the table path that is the prediction *)
      let spec_addr = t.ev_addr in
      (* a correct-address speculative miss starts the fill early; the
         normal access below merges with the in-flight fill *)
      if (not (Cache.access t.dcache spec_addr)) && Cache.line t.dcache spec_addr = Cache.line t.dcache eff then
        spec_missed_same_line := true;
      (match path with
      | Table_path ->
        site.site_table_attempts <- site.site_table_attempts + 1;
        if t.ev_success then site.site_table_successes <- site.site_table_successes + 1
      | Calc_path ->
        site.site_calc_attempts <- site.site_calc_attempts + 1;
        if t.ev_success then site.site_calc_successes <- site.site_calc_successes + 1
      | No_path -> ());
      if not t.ev_success then site.site_wasted_spec <- site.site_wasted_spec + 1
    end;
    let load_missed = ref false in
    let lat =
      if t.ev_success then t.ev_latency
      else begin
        (* normal path: cache access at MEM *)
        book_port t (c + 1);
        let hit = Cache.access t.dcache eff in
        if not hit then load_missed := true;
        if hit && !spec_missed_same_line then
          (* merge with the fill the speculative access initiated *)
          t.cfg.load_latency
          + imax 0 (t.cfg.miss_penalty - (c + 1 - t.ev_access_cycle))
        else t.cfg.load_latency + (if hit then 0 else t.cfg.miss_penalty)
      end
    in
    if !load_missed then site.site_dcache_misses <- site.site_dcache_misses + 1;
    Histogram.observe site.site_latency lat;
    latency := lat;
    def_cause := if !load_missed then Stall.Dcache_miss else Stall.Load_use;
    (* the table entry is updated at MEM with the computed address *)
    (match (t.table, path) with
    | Some table, Table_path -> ignore (Addr_table.update table pc eff)
    | _ -> ())
  end;
  (* stores *)
  if store then begin
    t.n_stores <- t.n_stores + 1;
    book_port t (c + 1);
    ignore (Cache.access_store t.dcache eff);
    (* Bound the window to stores issued at [c - 2] or later.  Issue
       cycles never decrease, so every later speculative probe reads
       at [read_cycle >= c - 1] (table: [c' - 1]; calc:
       [1 + max (c' - 2) _ >= c' - 1], with [c' >= c]) and first drops
       every store older than [read_cycle - 1 >= c - 2] itself: the
       stores pruned here could never interlock.  Without this, runs
       that never probe keep one entry per dynamic store. *)
    prune_stores t (c - 2);
    push_store t c eff (Program.width p pc)
  end;
  (* control flow *)
  (match op with
  | Program.Predicted ->
    let correct = Btb.update t.btb pc ~taken ~target:next_pc in
    if not correct then
      bump_fetch t (c + 1 + t.cfg.mispredict_penalty) Stall.Btb_mispredict
    else if taken then t.fetch_ready <- imax t.fetch_ready (c + 1)
  | Direct ->
    (* direct unconditional transfers redirect fetch without penalty
       but end the fetch group *)
    t.fetch_ready <- imax t.fetch_ready (c + 1)
  | _ -> ());
  (* destination *)
  let dst = Program.dest p pc in
  if dst >= 0 then begin
    t.reg_ready.(dst) <- c + !latency;
    t.reg_cause.(dst) <- !def_cause
  end;
  (match t.tracer with Some f -> f pc (Program.insn p pc) c !latency | None -> ());
  (* an issued instruction occupies its issue cycle even at latency 0 *)
  let finish = imax (c + !latency) (c + 1) in
  if finish > t.n_cycles then begin
    t.n_cycles <- finish;
    t.drain_cause <- !def_cause
  end

let set_tracer t f = t.tracer <- Some f

let observer t : Emulator.observer = fun p pc eff taken next_pc ->
  process t p pc eff taken next_pc

let config t = t.cfg

let table_stats t = Option.map Addr_table.stats t.table

let bric_stats t = Option.map Bric.stats t.bric

(* --- fault-injection hooks (lib/verify) -------------------------------- *)

let btb t = t.btb
let addr_table t = t.table
let bric t = t.bric
let current_cycle t = t.cur_cycle

(* --- telemetry accessors ---------------------------------------------- *)

let busy_cycles t = t.busy_cycles

let stall_breakdown t =
  let arr = Array.copy t.stall_cycles in
  (* charge the final drain (cycles after the last issue, waiting for
     the latest writeback) to whatever finishes last *)
  let drain = t.n_cycles - (t.last_issue + 1) in
  if drain > 0 then begin
    let i = Stall.index t.drain_cause in
    arr.(i) <- arr.(i) + drain
  end;
  List.map (fun cause -> (cause, arr.(Stall.index cause))) Stall.all

let stall_total t =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (stall_breakdown t)

(* A site that has not run since [bind] or [reset] belongs to no run:
   every execution observes its latency. *)
let load_sites t =
  Array.fold_right
    (fun site acc -> if Histogram.count site.site_latency = 0 then acc else site :: acc)
    t.sites []

let stats t =
  let _, icache_misses = Cache.stats t.icache in
  let dcache_accesses, dcache_misses = Cache.stats t.dcache in
  let s =
    { cycles = t.n_cycles
    ; instructions = t.n_instructions
    ; loads = 0
    ; stores = t.n_stores
    ; loads_n = 0
    ; loads_p = 0
    ; loads_e = 0
    ; table_attempts = 0
    ; table_successes = 0
    ; calc_attempts = 0
    ; calc_successes = 0
    ; wasted_spec = 0
    ; load_latency_sum = 0
    ; icache_misses
    ; dcache_accesses
    ; dcache_misses
    ; btb_mispredicts = Btb.misprediction_count t.btb }
  in
  List.iter
    (fun site ->
      let n = Histogram.count site.site_latency in
      s.loads <- s.loads + n;
      (match site.site_spec with
      | Insn.Ld_n -> s.loads_n <- s.loads_n + n
      | Insn.Ld_p -> s.loads_p <- s.loads_p + n
      | Insn.Ld_e -> s.loads_e <- s.loads_e + n);
      s.table_attempts <- s.table_attempts + site.site_table_attempts;
      s.table_successes <- s.table_successes + site.site_table_successes;
      s.calc_attempts <- s.calc_attempts + site.site_calc_attempts;
      s.calc_successes <- s.calc_successes + site.site_calc_successes;
      s.wasted_spec <- s.wasted_spec + site.site_wasted_spec;
      s.load_latency_sum <- s.load_latency_sum + Histogram.sum site.site_latency)
    (load_sites t);
  s

let load_latency_histogram t =
  let h = Histogram.create ~bounds:Histogram.load_latency_bounds in
  List.iter (fun site -> Histogram.merge_into ~into:h site.site_latency) (load_sites t);
  h

(* Run a program under this configuration; returns the pipeline (for
   telemetry extraction) and the program's printed output. *)
let run ?max_insns (cfg : Config.t) program =
  let t = create cfg in
  let emu = Emulator.create program in
  Emulator.run ~observer:(observer t) ?max_insns emu;
  (t, Emulator.output emu)

(* Run a program under this configuration and return final statistics. *)
let simulate ?max_insns (cfg : Config.t) program =
  let t, output = run ?max_insns cfg program in
  (stats t, output)
