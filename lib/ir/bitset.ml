(* Fixed-capacity bitsets over an [int array], [Sys.int_size] bits per
   word. *)

type t = int array

let bits = Sys.int_size

let create n = Array.make ((n + bits - 1) / bits) 0

let copy = Array.copy

let mem t i =
  let w = i / bits in
  w < Array.length t && t.(w) land (1 lsl (i mod bits)) <> 0

let add t i =
  let w = i / bits in
  if w >= Array.length t then invalid_arg "Bitset.add: beyond capacity";
  t.(w) <- t.(w) lor (1 lsl (i mod bits))

let remove t i =
  let w = i / bits in
  if w < Array.length t then t.(w) <- t.(w) land lnot (1 lsl (i mod bits))

let iter f t =
  Array.iteri
    (fun w word ->
      if word <> 0 then
        for b = 0 to bits - 1 do
          if word land (1 lsl b) <> 0 then f ((w * bits) + b)
        done)
    t

let elements t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let flow ~use ~def ~out ~into =
  let changed = ref false in
  for w = 0 to Array.length into - 1 do
    let v = use.(w) lor (out.(w) land lnot def.(w)) in
    if v <> into.(w) then begin
      into.(w) <- v;
      changed := true
    end
  done;
  !changed

let union_into s ~into =
  let changed = ref false in
  for w = 0 to Array.length into - 1 do
    let v = into.(w) lor s.(w) in
    if v <> into.(w) then begin
      into.(w) <- v;
      changed := true
    end
  done;
  !changed
