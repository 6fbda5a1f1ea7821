(* Tests for the prediction structures: the Figure 3 stride state
   machine, the direct-mapped address table, the ideal per-PC
   predictor, the BRIC (and R_addr, its one-entry case) and the BTB. *)

module Stride_entry = Elag_predict.Stride_entry
module Addr_table = Elag_predict.Addr_table
module Ideal = Elag_predict.Ideal
module Bric = Elag_predict.Bric
module Btb = Elag_predict.Btb

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- stride entry state machine (paper Figure 3) ----------------------- *)

(* Feed a list of addresses; return the per-access correctness list. *)
let drive addrs =
  match addrs with
  | [] -> []
  | first :: rest ->
    let e = Stride_entry.allocate first in
    (* the allocation consumes the first address; it cannot be correct *)
    List.map (fun ca -> Stride_entry.update e ca) rest

let test_constant_address () =
  (* Replace sets PA=CA, ST=0: constant addresses predict immediately. *)
  Alcotest.(check (list bool)) "constant stream"
    [ true; true; true ]
    (drive [ 100; 100; 100; 100 ])

let test_stride_learning () =
  (* 100,104,108,112,...: first access allocates; 104 mismatches
     (New_Stride), 108 verifies the stride, 112 onward predict. *)
  Alcotest.(check (list bool)) "stride warmup"
    [ false; false; true; true; true ]
    (drive [ 100; 104; 108; 112; 116; 120 ])

let test_stride_change_relearns () =
  (* the relearned stride only pays off one access later: the update
     at 36 verifies the new stride but its own prediction was stale *)
  Alcotest.(check (list bool)) "stride change"
    [ false; false; true; false; false; false; true ]
    (drive [ 0; 4; 8; 12; 20; 28; 36; 44 ])

let test_figure3_transitions () =
  let e = Stride_entry.allocate 100 in
  (* functioning, PA=100, ST=0 *)
  check_bool "correct keeps functioning" true (Stride_entry.update e 100);
  check "pa advances by st" 100 (Stride_entry.predicted_address e);
  check_bool "mismatch enters learning" false (Stride_entry.update e 104);
  (* learning: PA=104, ST=4, STC=0 *)
  check "pa tracks ca in learning" 104 (Stride_entry.predicted_address e);
  check_bool "verified stride" false (Stride_entry.update e 108);
  (* functioning again: PA=108+4 *)
  check "pa = ca + st" 112 (Stride_entry.predicted_address e);
  check_bool "now predicting" true (Stride_entry.update e 112)

let test_random_addresses_rarely_predict () =
  let rng = Random.State.make [| 42 |] in
  let addrs = List.init 200 (fun _ -> Random.State.int rng 1_000_000) in
  let correct = List.filter (fun c -> c) (drive addrs) in
  check_bool "random stream mostly unpredicted" true (List.length correct < 10)

(* --- address table ------------------------------------------------------ *)

let test_table_miss_then_hit () =
  let t = Addr_table.create 16 in
  check_bool "cold probe misses" false (Addr_table.probe t 3);
  ignore (Addr_table.update t 3 100);
  check_bool "probe hits after allocation" true (Addr_table.probe t 3);
  check "PA=100 after allocation" 100 (Addr_table.predicted_address t 3);
  let st = Addr_table.stats t in
  check "probes counted" 2 st.Addr_table.st_probes;
  check "hits counted" 1 st.Addr_table.st_hits;
  ignore (Addr_table.update t 3 100);
  ignore (Addr_table.update t 3 100);
  match Addr_table.peek t 3 with
  | Some 100 -> ()
  | _ -> Alcotest.fail "constant address should keep predicting"

let test_table_conflict_eviction () =
  let t = Addr_table.create 16 in
  ignore (Addr_table.update t 5 100);
  ignore (Addr_table.update t 21 200); (* same index: 21 mod 16 = 5 *)
  check_bool "evicted" false (Addr_table.probe t 5);
  check_bool "new resident" true (Addr_table.probe t 21)

let test_table_strided_load () =
  let t = Addr_table.create 64 in
  let correct = ref 0 in
  for i = 0 to 19 do
    (match Addr_table.peek t 7 with
    | Some pa when pa = 1000 + (i * 8) -> incr correct
    | _ -> ());
    ignore (Addr_table.update t 7 (1000 + (i * 8)))
  done;
  (* predictions correct from the 4th access on *)
  check "strided predictions" 17 !correct

let test_peek_is_pure () =
  let t = Addr_table.create 8 in
  ignore (Addr_table.update t 1 500);
  let before = Addr_table.stats t in
  ignore (Addr_table.peek t 1);
  ignore (Addr_table.peek t 1);
  let after = Addr_table.stats t in
  check "peek does not count probes" before.Addr_table.st_probes
    after.Addr_table.st_probes

(* --- ideal predictor ----------------------------------------------------- *)

(* Loads are named by their number in a program's dense load index. *)
let test_ideal_rates () =
  let t = Ideal.create 3 in
  (* strided load 0: 20 executions *)
  for i = 0 to 19 do
    Ideal.observe t ~load:0 ~ca:(i * 4)
  done;
  (* constant load 1 *)
  for _ = 1 to 10 do
    Ideal.observe t ~load:1 ~ca:999
  done;
  (match Ideal.rate t 0 with
  | Some r -> check_bool "strided rate ~0.85" true (r > 0.8 && r < 0.95)
  | None -> Alcotest.fail "no rate");
  (match Ideal.rate t 1 with
  | Some r -> check_bool "constant rate 0.9" true (r >= 0.9)
  | None -> Alcotest.fail "no rate");
  check "executions tracked" 20 (Ideal.executions t 0);
  check "unexecuted load: no executions" 0 (Ideal.executions t 2);
  check_bool "unexecuted load: no rate" true (Ideal.rate t 2 = None)

let test_ideal_aggregate () =
  let t = Ideal.create 2 in
  for i = 0 to 9 do
    Ideal.observe t ~load:0 ~ca:(i * 4);
    Ideal.observe t ~load:1 ~ca:(i * 123456 mod 7919)
  done;
  match Ideal.aggregate_rate t [ 0; 1 ] with
  | Some r ->
    let r1 = Option.get (Ideal.rate t 0) and r2 = Option.get (Ideal.rate t 1) in
    Alcotest.(check (float 0.0001)) "aggregate is weighted mean" ((r1 +. r2) /. 2.) r
  | None -> Alcotest.fail "no aggregate"

(* --- BRIC ---------------------------------------------------------------- *)

let test_bric_lru () =
  let b = Bric.create 2 in
  check_bool "cold miss" false (Bric.probe b ~cycle:10 5);
  check_bool "hit after allocate" true (Bric.probe b ~cycle:11 5);
  check_bool "second reg" false (Bric.probe b ~cycle:12 6);
  check_bool "refresh 5" true (Bric.probe b ~cycle:13 5);
  check_bool "third evicts lru (6)" false (Bric.probe b ~cycle:14 7);
  (* use pure peeks for the eviction checks: probing would reallocate *)
  check_bool "6 was evicted" false (Bric.peek b ~cycle:15 6);
  check_bool "5 survived" true (Bric.peek b ~cycle:16 5)

let test_bric_allocation_delay () =
  let b = Bric.create 4 in
  ignore (Bric.probe b ~cycle:10 3);
  (* value not usable in the same cycle it was allocated *)
  check_bool "peek same cycle" false (Bric.peek b ~cycle:10 3);
  check_bool "peek next cycle" true (Bric.peek b ~cycle:11 3)

(* --- R_addr: a one-entry BRIC, bound by each probe --------------------- *)

let test_raddr_binding () =
  let r = Bric.create 1 in
  let bind ~cycle reg = ignore (Bric.probe r ~cycle reg) in
  check_bool "unbound" false (Bric.peek r ~cycle:5 9);
  bind ~cycle:5 9;
  check_bool "not valid same cycle after switch" false (Bric.peek r ~cycle:5 9);
  check_bool "valid next cycle" true (Bric.peek r ~cycle:6 9);
  (* rebinding to the same register is free *)
  bind ~cycle:8 9;
  check_bool "same-reg rebind keeps validity" true (Bric.peek r ~cycle:8 9);
  (* switching invalidates *)
  bind ~cycle:9 4;
  check_bool "switch invalidates" false (Bric.peek r ~cycle:9 4);
  check_bool "old binding gone" false (Bric.peek r ~cycle:10 9);
  check_bool "new binding valid" true (Bric.peek r ~cycle:10 4);
  (* the counters: three binds, one same-register hit, one switch *)
  let st = Bric.stats r in
  check "probes" 3 st.Bric.br_probes;
  check "hits" 1 st.Bric.br_hits;
  check "evictions (binding switches)" 1 st.Bric.br_evictions

(* --- BTB ---------------------------------------------------------------- *)

let test_btb_learns_taken () =
  let b = Btb.create 64 in
  (* first taken branch mispredicts (cold), then predicts *)
  check_bool "cold mispredict" false (Btb.update b 10 ~taken:true ~target:50);
  check_bool "second correct" true (Btb.update b 10 ~taken:true ~target:50);
  let p = Btb.predict b 10 in
  check_bool "predicts taken" true p.Btb.pred_taken;
  check "predicts target" 50 p.Btb.pred_target

let test_btb_counter_hysteresis () =
  let b = Btb.create 64 in
  ignore (Btb.update b 10 ~taken:true ~target:50);  (* allocate, counter 2 *)
  ignore (Btb.update b 10 ~taken:true ~target:50);  (* counter 3 *)
  (* one not-taken: mispredicts but stays predicted-taken (counter 2) *)
  check_bool "flip mispredicts" false (Btb.update b 10 ~taken:false ~target:11);
  check_bool "still predicts taken" true (Btb.predict b 10).Btb.pred_taken;
  ignore (Btb.update b 10 ~taken:false ~target:11);
  check_bool "two not-taken flip prediction" false (Btb.predict b 10).Btb.pred_taken

let test_btb_not_taken_never_allocates () =
  let b = Btb.create 64 in
  check_bool "not-taken correct cold" true (Btb.update b 10 ~taken:false ~target:11);
  check_bool "still cold" false (Btb.predict b 10).Btb.pred_taken

let test_btb_wrong_target_counts () =
  let b = Btb.create 64 in
  ignore (Btb.update b 10 ~taken:true ~target:50);
  (* indirect jump changes target: direction right, target wrong *)
  check_bool "target mismatch mispredicts" false
    (Btb.update b 10 ~taken:true ~target:60)

let stride_props =
  let open QCheck in
  [ Test.make ~name:"figure-3 machine converges on any constant stride"
      ~count:100
      (pair (int_range 1 512) (int_range 0 100000))
      (fun (stride, start) ->
        let e = Stride_entry.allocate start in
        (* warm up: three accesses establish the stride *)
        ignore (Stride_entry.update e (start + stride));
        ignore (Stride_entry.update e (start + (2 * stride)));
        (* all subsequent accesses predicted *)
        List.for_all
          (fun i -> Stride_entry.update e (start + (i * stride)))
          [ 3; 4; 5; 6; 7; 8 ]) ]

let suite =
  [ Alcotest.test_case "stride: constant" `Quick test_constant_address
  ; Alcotest.test_case "stride: learning" `Quick test_stride_learning
  ; Alcotest.test_case "stride: relearn" `Quick test_stride_change_relearns
  ; Alcotest.test_case "stride: figure-3 transitions" `Quick test_figure3_transitions
  ; Alcotest.test_case "stride: random noise" `Quick test_random_addresses_rarely_predict
  ; Alcotest.test_case "table: miss/hit" `Quick test_table_miss_then_hit
  ; Alcotest.test_case "table: conflict" `Quick test_table_conflict_eviction
  ; Alcotest.test_case "table: strided" `Quick test_table_strided_load
  ; Alcotest.test_case "table: peek pure" `Quick test_peek_is_pure
  ; Alcotest.test_case "ideal: rates" `Quick test_ideal_rates
  ; Alcotest.test_case "ideal: aggregate" `Quick test_ideal_aggregate
  ; Alcotest.test_case "bric: lru" `Quick test_bric_lru
  ; Alcotest.test_case "bric: allocation delay" `Quick test_bric_allocation_delay
  ; Alcotest.test_case "raddr: binding" `Quick test_raddr_binding
  ; Alcotest.test_case "btb: learns" `Quick test_btb_learns_taken
  ; Alcotest.test_case "btb: hysteresis" `Quick test_btb_counter_hysteresis
  ; Alcotest.test_case "btb: not-taken" `Quick test_btb_not_taken_never_allocates
  ; Alcotest.test_case "btb: wrong target" `Quick test_btb_wrong_target_counts ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) stride_props
