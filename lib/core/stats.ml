type tactic = B0 | B1 | B2 | T1 | T2 | T3

type t = {
  mutable b0 : int;
  mutable b1 : int;
  mutable b2 : int;
  mutable t1 : int;
  mutable t2 : int;
  mutable t3 : int;
  mutable failed : int;
}

let create () = { b0 = 0; b1 = 0; b2 = 0; t1 = 0; t2 = 0; t3 = 0; failed = 0 }

let record t = function
  | B0 -> t.b0 <- t.b0 + 1
  | B1 -> t.b1 <- t.b1 + 1
  | B2 -> t.b2 <- t.b2 + 1
  | T1 -> t.t1 <- t.t1 + 1
  | T2 -> t.t2 <- t.t2 + 1
  | T3 -> t.t3 <- t.t3 + 1

let record_failure t = t.failed <- t.failed + 1

let succeeded t = t.b0 + t.b1 + t.b2 + t.t1 + t.t2 + t.t3
let total t = succeeded t + t.failed

let pct t n = if total t = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int (total t)
let base_pct t = pct t (t.b1 + t.b2)
let t1_pct t = pct t t.t1
let t2_pct t = pct t t.t2
let t3_pct t = pct t t.t3
let succ_pct t = pct t (succeeded t)

let tactic_name = function
  | B0 -> "B0"
  | B1 -> "B1"
  | B2 -> "B2"
  | T1 -> "T1"
  | T2 -> "T2"
  | T3 -> "T3"

let pp ppf t =
  Format.fprintf ppf
    "#Loc=%d Base=%.2f%% T1=%.2f%% T2=%.2f%% T3=%.2f%% Succ=%.2f%%" (total t)
    (base_pct t) (t1_pct t) (t2_pct t) (t3_pct t) (succ_pct t)

(* ------------------------------------------------------------------ *)
(* Harness throughput (the evaluation substrate's own performance)     *)
(* ------------------------------------------------------------------ *)

type throughput = {
  wall_s : float;
  emu_insns : int;
  emu_wall_s : float;
  block_hits : int;
  block_misses : int;
  block_invalidations : int;
  domains : int;
}

let insns_per_sec t =
  if t.emu_wall_s <= 0.0 then 0.0
  else float_of_int t.emu_insns /. t.emu_wall_s

let block_hit_rate t =
  let total = t.block_hits + t.block_misses in
  if total = 0 then 0.0 else float_of_int t.block_hits /. float_of_int total

let pp_throughput ppf t =
  Format.fprintf ppf
    "wall=%.2fs domains=%d emu: %d insns in %.2fs (%.2f Minsns/s), block \
     cache %.1f%% hit (%d hits / %d misses / %d flushes)"
    t.wall_s t.domains t.emu_insns t.emu_wall_s
    (insns_per_sec t /. 1e6)
    (100.0 *. block_hit_rate t)
    t.block_hits t.block_misses t.block_invalidations
