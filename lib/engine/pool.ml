exception Failures of (int * string) list

let () =
  Printexc.register_printer (function
    | Failures fs ->
      Some
        (Printf.sprintf "Pool.Failures: %d jobs failed: %s" (List.length fs)
           (String.concat "; "
              (List.map (fun (i, m) -> Printf.sprintf "[%d] %s" i m) fs)))
    | _ -> None)

let default_jobs () = Domain.recommended_domain_count ()

(* The one worker loop behind [run] and [run_supervised]: up to [jobs]
   domains claim indices from a shared counter and store [f item] in
   the item's slot.  [f] must not raise — both callers turn failures
   into values — so every job runs even after an early failure. *)
let collect ~jobs f (items : 'a array) : 'b array =
  let n = Array.length items in
  let results : 'b option array = Array.make n None in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (f items.(i));
      worker ()
    end
  in
  let domains = Array.init (max 1 (min jobs n) - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  Array.map
    (function
      | Some r -> r
      | None -> assert false (* every index was claimed exactly once *))
    results

let run ~jobs f (items : 'a array) : 'b array =
  let results =
    collect ~jobs
      (fun item -> try Ok (f item) with e -> Error (e, Printexc.get_raw_backtrace ()))
      items
  in
  let failures = ref [] in
  Array.iteri
    (fun i -> function Error eb -> failures := (i, eb) :: !failures | Ok _ -> ())
    results;
  match List.rev !failures with
  | [] -> Array.map (function Ok v -> v | Error _ -> assert false (* no failures *)) results
  | [ (_, (e, bt)) ] ->
    (* A lone failure keeps its identity (and backtrace) so callers'
       specific handlers — Compile.Error, Lint.Rejected — still fire. *)
    Printexc.raise_with_backtrace e bt
  | many ->
    raise (Failures (List.map (fun (i, (e, _)) -> (i, Printexc.to_string e)) many))

let map_list ~jobs f items = Array.to_list (run ~jobs f (Array.of_list items))

(* --- supervised runs --------------------------------------------------- *)

(* The graceful-degradation mode the fuzz campaigns (and any long
   unattended run) need: a job that times out or crashes becomes a
   structured per-index result instead of an exception that aborts the
   whole batch.  Jobs are deterministic, so a crash would recur on
   every attempt: each job runs exactly once.

   Cancellation is cooperative — a domain cannot be killed, so each
   job gets a fresh {!Elag_verify.Deadline} and is expected to poll it
   from its hot path (simulator jobs poll once per retired instruction
   through the observer hook).  A job that never polls cannot be
   reclaimed; everything this repository runs on the pool retires
   instructions, so every job polls. *)

module Deadline = Elag_verify.Deadline

type failure =
  | Job_failed of { message : string }
  | Job_timeout of { timeout_ms : int }

type 'b outcome = ('b, failure) result

let pp_failure ppf = function
  | Job_failed { message } -> Fmt.pf ppf "failed: %s" message
  | Job_timeout { timeout_ms } -> Fmt.pf ppf "timed out (%d ms budget)" timeout_ms

let failure_to_string f = Fmt.str "%a" pp_failure f

let run_supervised ?timeout_ms ~jobs f (items : 'a array) : 'b outcome array =
  (match timeout_ms with
  | Some t when t <= 0 -> invalid_arg "Pool.run_supervised: non-positive timeout"
  | _ -> ());
  collect ~jobs
    (fun item ->
      match f (Deadline.opt timeout_ms) item with
      | v -> Ok v
      | exception Deadline.Job_timeout { timeout_ms } -> Error (Job_timeout { timeout_ms })
      | exception e -> Error (Job_failed { message = Printexc.to_string e }))
    items

let outcome_failures outcomes =
  let acc = ref [] in
  Array.iteri
    (fun i -> function Error f -> acc := (i, f) :: !acc | Ok _ -> ())
    outcomes;
  List.rev !acc
