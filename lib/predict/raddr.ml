(* The special addressing register R_addr (paper §3.2.1): a one-entry
   cache bound to a single general-purpose register by each ld_e.

   Binding to a *different* register makes the cached value unusable
   until the next cycle (the paper's "binding has just been switched by
   the current load" hazard); re-binding to the same register is free.
   Value staleness from in-flight writes is checked by the pipeline
   through its scoreboard (the R_addr interlock term). *)

type t =
  { mutable bound : int  (* -1 = unbound *)
  ; mutable valid_from : int }

let create () = { bound = -1; valid_from = 0 }

(* Hit test for base register [reg] at [cycle]: true when R_addr is
   bound to [reg] and the cached value is usable this cycle. *)
let peek t ~cycle reg = t.bound = reg && cycle >= t.valid_from

(* Bind R_addr to [reg] (performed by every ld_e, and by the
   hardware-selection baseline on every early-path load). *)
let bind t ~cycle reg =
  if t.bound <> reg then begin
    t.bound <- reg;
    t.valid_from <- cycle + 1
  end

(* --- fault-injection hooks (lib/verify) ------------------------------ *)

let unbind t =
  t.bound <- -1;
  t.valid_from <- 0

let bound t = if t.bound < 0 then None else Some t.bound
