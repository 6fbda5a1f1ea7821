(* Golden-file comparison shared by the golden tests.  The files sit in
   [test/] and are copied next to the test binary by dune's [deps].  To
   regenerate one after an intended change, name it in
   ELAG_UPDATE_GOLDEN:

     ELAG_UPDATE_GOLDEN=$PWD/test/golden_report.json dune runtest

   Only the test whose file has that base name rewrites it. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check ~file actual =
  (match Sys.getenv_opt "ELAG_UPDATE_GOLDEN" with
  | Some path when Filename.basename path = file ->
    let oc = open_out_bin path in
    output_string oc actual;
    close_out oc
  | _ -> ());
  Alcotest.(check string) (file ^ " matches") (read_file file) actual
