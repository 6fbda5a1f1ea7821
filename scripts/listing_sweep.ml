(* Listing sweep: the MD5 of every compiled listing over a wider set
   than test/golden_listings.json — the 25 workloads and [Gen.minic]
   seeds 0-999, each under the ten option sets of
   [Compile.listing_options], 10,250 listings in all.

   Prints one [source|options|md5] line per listing.
   [scripts/listing_sweep.md5] holds the MD5 of this output; CI checks
   it, plainly and under [OCAMLRUNPARAM=R].  A change that moves a
   listing regenerates it (DESIGN §14):

     dune exec scripts/listing_sweep.exe | md5sum | cut -d' ' -f1 > scripts/listing_sweep.md5

   Diffing the output against the same run at the parent commit shows
   which listings moved. *)

module Compile = Elag_harness.Compile

let sweep name source =
  List.iter
    (fun (config, options) ->
      Printf.printf "%s|%s|%s\n" name config (Compile.listing_digest ~options source))
    Compile.listing_options

let () =
  List.iter
    (fun (w : Elag_workloads.Workload.t) -> sweep w.name w.source)
    Elag_workloads.Suite.all;
  for seed = 0 to 999 do
    sweep (Printf.sprintf "minic-%d" seed) (Elag_fuzz.Gen.minic seed)
  done
