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

(* Up to [jobs] domains claim indices from a shared counter and store
   each job's result or exception in its slot, so every job runs even
   after an early failure. *)
let run ~jobs f (items : 'a array) : 'b array =
  let n = Array.length items in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some (try Ok (f items.(i)) with e -> Error (e, Printexc.get_raw_backtrace ()));
      worker ()
    end
  in
  let domains = Array.init (max 1 (min jobs n) - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  let failures = ref [] in
  Array.iteri
    (fun i -> function Some (Error eb) -> failures := (i, eb) :: !failures | _ -> ())
    results;
  match List.rev !failures with
  | [] ->
    Array.map
      (function
        | Some (Ok v) -> v
        | _ -> assert false (* every index was claimed once, none failed *))
      results
  | [ (_, (e, bt)) ] ->
    (* A lone failure keeps its identity (and backtrace) so callers'
       specific handlers — Compile.Error, Lint.Rejected — still fire. *)
    Printexc.raise_with_backtrace e bt
  | many ->
    raise (Failures (List.map (fun (i, (e, _)) -> (i, Printexc.to_string e)) many))

let map_list ~jobs f items = Array.to_list (run ~jobs f (Array.of_list items))
