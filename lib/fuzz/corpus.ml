(* Persistent minimal repros.

   A corpus entry is two files keyed by a content fingerprint:

     fuzz/corpus/<fingerprint>.epa    human-readable shrunk listing
     fuzz/corpus/<fingerprint>.json   machine metadata

   The JSON carries everything needed to regenerate the repro from
   scratch — generator seed and params (or the MiniC seed), mechanism,
   failure kind/detail, the planted mutation name if any, and the
   divergence report — so [replay] re-derives the program from its
   seed rather than trusting the listing, and the listing exists for
   humans reading a bug report.

   Replay semantics double as regression tests: an entry captured
   under a planted mutation must STILL diverge when replayed (the
   campaign's detection power is pinned), while an entry captured from
   a real simulator bug must come back green once the bug is fixed —
   until then its replay failure is the open-bug marker. *)

module Json = Elag_telemetry.Json
module Config = Elag_sim.Config

let schema_version = 1

type entry =
  { fingerprint : string
  ; seed : int
  ; source : string  (* "epa" | "minic" *)
  ; mechanism : string
  ; kind : string
  ; detail : string
  ; mutation : string option
  ; gen_params : Json.t
  ; insns : int
  ; listing : string
  ; report : Json.t }

(* FNV-1a over the stable identity of the repro.  The listing (not the
   seed) keys the entry, so two seeds shrinking to the same minimal
   program dedupe to one corpus file. *)
let fingerprint ~listing ~mechanism ~detail =
  let h = ref 0x3bf29ce484222325 in
  let fold s =
    String.iter
      (fun c ->
        h := (!h lxor Char.code c) * 0x100000001b3 land max_int)
      s
  in
  fold listing;
  fold mechanism;
  fold detail;
  Printf.sprintf "%012x" (!h land 0xFFFFFFFFFFFF)

let to_json e =
  Json.Obj
    [ ("schema", Json.Int schema_version)
    ; ("fingerprint", Json.String e.fingerprint)
    ; ("seed", Json.Int e.seed)
    ; ("source", Json.String e.source)
    ; ("mechanism", Json.String e.mechanism)
    ; ("kind", Json.String e.kind)
    ; ("detail", Json.String e.detail)
    ; ( "mutation"
      , match e.mutation with None -> Json.Null | Some m -> Json.String m )
    ; ("gen_params", e.gen_params)
    ; ("insns", Json.Int e.insns)
    ; ("report", e.report) ]

let of_json ~listing j =
  let str name =
    match Option.bind (Json.member name j) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "corpus entry: missing string field %S" name)
  in
  let int name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "corpus entry: missing int field %S" name)
  in
  let ( let* ) = Result.bind in
  let* schema = int "schema" in
  if schema <> schema_version then
    Error (Printf.sprintf "corpus entry: unsupported schema %d" schema)
  else
    let* fingerprint = str "fingerprint" in
    let* seed = int "seed" in
    let* source = str "source" in
    let* mechanism = str "mechanism" in
    let* kind = str "kind" in
    let* detail = str "detail" in
    let* insns = int "insns" in
    let mutation =
      match Json.member "mutation" j with
      | Some (Json.String m) -> Some m
      | _ -> None
    in
    let gen_params = Option.value (Json.member "gen_params" j) ~default:Json.Null in
    let report = Option.value (Json.member "report" j) ~default:Json.Null in
    Ok
      { fingerprint; seed; source; mechanism; kind; detail; mutation
      ; gen_params; insns; listing; report }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save ~dir e =
  mkdir_p dir;
  let base = Filename.concat dir e.fingerprint in
  let write path content =
    let oc = open_out path in
    output_string oc content;
    close_out oc
  in
  write (base ^ ".epa") e.listing;
  write (base ^ ".json") (Json.to_string ~pretty:true (to_json e) ^ "\n");
  base ^ ".json"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_file path =
  match Json.parse (read_file path) with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok j ->
    let epa = Filename.remove_extension path ^ ".epa" in
    let listing = if Sys.file_exists epa then read_file epa else "" in
    Result.map_error
      (fun msg -> Printf.sprintf "%s: %s" path msg)
      (of_json ~listing j)

let entries_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (fun f -> Filename.concat dir f)

(* The corpus lives at the repo root; tests run from _build/default/test,
   so walk up from the cwd looking for fuzz/corpus. *)
let locate () =
  let rec go dir depth =
    if depth > 8 then None
    else
      let candidate = Filename.concat (Filename.concat dir "fuzz") "corpus" in
      if Sys.file_exists candidate && Sys.is_directory candidate then
        Some candidate
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else go parent (depth + 1)
  in
  go (Sys.getcwd ()) 0

(* --- replay ------------------------------------------------------------- *)

let replay e =
  let ( let* ) = Result.bind in
  let* params =
    if e.source = "epa" then Gen.params_of_json e.gen_params else Ok Gen.default_params
  in
  let* program, budget =
    match Gen.iteration ~params ~source:e.source e.seed with
    | _, program, budget -> Ok (program, budget)
    | exception Elag_harness.Compile.Error msg ->
      Error (Printf.sprintf "compile failed: %s" msg)
    | exception Invalid_argument msg -> Error msg
  in
  let* mechanism =
    match Config.Mechanism.of_string e.mechanism with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "unknown mechanism %S" e.mechanism)
  in
  let cfg = Config.with_mechanism mechanism Config.default in
  match Gen.verdict ?mutation:e.mutation ~budget cfg program with
  | _, sig_ -> (
    match (e.mutation, sig_) with
    | Some m, Some s ->
      Ok (Printf.sprintf "mutation %S still caught (%s)" m s)
    | Some m, None ->
      Error (Printf.sprintf "mutation %S no longer detected — oracle blind spot" m)
    | None, None -> Ok "repro is green (bug fixed; entry pins the regression)"
    | None, Some s -> Error (Printf.sprintf "still failing: %s" s))
  | exception e -> Error (Printf.sprintf "replay raised: %s" (Printexc.to_string e))

let replay_dir dir =
  List.map
    (fun path ->
      match load_file path with
      | Error msg -> (path, Error msg)
      | Ok entry -> (path, replay entry))
    (entries_dir dir)
