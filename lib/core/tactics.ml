module Buf = E9_bits.Buf
module Insn = E9_x86.Insn
module Obs = E9_obs.Obs
module Fault = E9_fault.Fault

type options = {
  enable_base : bool;
  enable_t1 : bool;
  enable_t2 : bool;
  enable_t3 : bool;
  b0_fallback : bool;
}

let default_options =
  { enable_base = true;
    enable_t1 = true;
    enable_t2 = true;
    enable_t3 = true;
    b0_fallback = false }

(* Bound on candidate probes across T3's victim enumeration. *)
let t3_budget = 8192

type ctx = {
  text : Buf.t;
  text_base : int;  (* the address of [text]'s byte 0 *)
  layout : Layout.t;
  index : Frontend.index;
      (* The original text's instruction lengths: T2's successor and T3's
         victims are decoded from it when a tactic reads them. *)
  locks : Lock.t;
  dead : Lock.t;
      (* Bytes that can never execute again: the tail of an instruction
         whose head was overwritten by a jump. Unreachable (instruction
         starts are the only jump targets), unlocked, and available for a
         later T3 J_patch to squat in — the paper's "victim is itself a
         patch location" case. *)
  mutable trampolines : (int * bytes) list;
  mutable traps : Loadmap.trap list;
  opts : options;
  obs : Obs.t;
  fault : Fault.t;
}

let create_ctx ?(obs = Obs.null) ?(fault = Fault.none) ~text ~text_base
    ~layout ?index ?sites ~options () =
  let index =
    match (index, sites) with
    | Some index, _ -> index
    | None, Some sites ->
        let size = Buf.length text in
        Frontend.index_of_sites
          { Frontend.base = text_base; offset = 0; size }
          (Buf.sub text ~pos:0 ~len:size)
          (Array.to_list sites)
    | None, None -> invalid_arg "Tactics.create_ctx: no index and no sites"
  in
  let { Frontend.base; size; _ } = Frontend.index_text index in
  { text;
    text_base;
    layout;
    index;
    locks = Lock.create ~base ~len:size;
    dead = Lock.create ~base ~len:size;
    trampolines = [];
    traps = [];
    opts = options;
    obs;
    fault }

let trampolines ctx = List.rev ctx.trampolines
let trap_entries ctx = List.rev ctx.traps
let locks ctx = ctx.locks

(* ------------------------------------------------------------------ *)
(* The fault-guarded allocator query                                   *)
(* ------------------------------------------------------------------ *)

let reason_of_denial = function
  | Layout.Dead_window -> Obs.Dead_window
  | Layout.Conflict -> Obs.Alloc_conflict

(* Every jump-tactic Layout query runs through [guarded] (T3's through
   [probe_unfaulted], below), so an [Alloc] rule can deterministically
   refuse "the Nth allocation" whatever tactic issues it; a refused
   query never reaches the allocator. A failure comes back as the reject
   reason it stands for, and each tactic derives its own reason from its
   own queries alone. B0's allocation is deliberately NOT guarded by the
   [Alloc] site (it has its own [B0_alloc] site in [try_b0]): the
   paper's always-succeeds fallback must keep succeeding when the jump
   tactics are starved, or injected exhaustion could never be degraded
   to a verified rewrite.
   A commit claims a home that its own query has just found free without
   asking again, but passes [alloc_fault] at that claim, so each claim
   is still an [Alloc] occurrence a schedule can refuse. *)
let alloc_fault ctx =
  if Fault.fires ctx.fault Fault.Alloc then Error Obs.Injected else Ok ()

let guarded ctx query =
  match alloc_fault ctx with
  | Error r -> Error r
  | Ok () -> (
      match query ctx.layout with
      | Ok v -> Ok v
      | Error d -> Error (reason_of_denial d))

(* T3's queries: its verdict reads only its budget and whether an [Alloc]
   fault fired, so they answer where, never why. *)
let probe_unfaulted ctx query =
  if Result.is_ok (alloc_fault ctx) then query ctx.layout else None

(* ------------------------------------------------------------------ *)
(* Text access                                                         *)
(* ------------------------------------------------------------------ *)

let in_text ctx addr =
  let { Frontend.base; size; _ } = Frontend.index_text ctx.index in
  addr >= base && addr < base + size

let byte ctx addr = Buf.get_u8 ctx.text (addr - ctx.text_base)
let set_byte ctx addr v = Buf.set_u8 ctx.text (addr - ctx.text_base) v

(* Padding prefixes for T1, in the order they are prepended (all are
   semantically inert on a near jump — REX and segment overrides). *)
let pad_prefixes = [| 0x48; 0x26; 0x2e; 0x36; 0x3e; 0x64; 0x65 |]

(* ------------------------------------------------------------------ *)
(* The punned-jump primitive shared by all jump tactics                *)
(* ------------------------------------------------------------------ *)

(* Free displacement bytes of a 5-byte jump with [pad] prefixes placed over
   an instruction of [len] bytes. *)
let free_bytes_of ~len ~pad = min (max (len - pad - 1) 0) 4

(* Trampolines must be able to jump *back*: their return displacement is a
   rel32 too, and a trampoline at the very edge of the ±2 GiB window would
   overshoot. Clamp every window by a page of slack. *)
let reach_margin = 0x1000

(* The pun constraint as one interval (paper §1): the targets a 5-byte
   jump ending at [jmp_end] reaches when its low [free] displacement
   bytes are free and the rest read [fixed] (low byte first), clamped so
   the trampoline can still jump back and reach every address in
   [reach] (a plan's reach) by rel32. Each clamp is an interval, so the
   window stays one. Every tactic's trampoline window is one of these;
   B0's trap is [free = 4], [fixed = []]. *)
let window ~reach ~jmp_end ~free ~fixed =
  List.fold_left
    (fun (lo, hi) a ->
      ( max lo (a - 0x8000_0000 + reach_margin),
        min hi (a + 0x7fff_ffff - reach_margin) ))
    (Pun.target_window ~jmp_end ~free_bytes:free
       ~fixed_high:(Pun.fixed_high_of_bytes fixed))
    (jmp_end :: reach)

(* ------------------------------------------------------------------ *)
(* The per-site trampoline plan                                        *)
(* ------------------------------------------------------------------ *)

(* What every tactic needs of one site's trampoline, worked out once
   before the ladder runs: the addresses its code reaches by rel32
   ([reach], the template's {!Trampoline.references}), the widest window
   any placement can use ([window]: B0's, a full rel32 from the site
   clamped by [reach]; every pun window lies within it, up to the few
   bytes a padded jump's end moves), and its length. The length does not
   depend on where the trampoline lands ({!Trampoline.size}), so one
   sizing serves every placement the ladder tries. Evictees get a plan
   of their own, with the [Empty] template. *)
type plan = {
  site : Frontend.site;
  template : Trampoline.template;
  reach : int list;
  window : int * int;
  size : int;
}

(* Reach before size: a site whose window clamps to empty fails with
   [Range] before anything is emitted for it. Otherwise the template is
   sized at the window's address nearest the site, from where the
   displaced instruction's own targets are as reachable as from the
   site. [site] must be {!Trampoline.displaceable}. *)
let plan (site : Frontend.site) template =
  let reach = Trampoline.references template in
  let lo, hi = window ~reach ~jmp_end:(site.addr + 5) ~free:4 ~fixed:[] in
  if lo > hi then Error Obs.Range
  else
    Ok
      { site;
        template;
        reach;
        window = (lo, hi);
        size =
          Trampoline.size template ~at:(max lo (min hi site.addr))
            ~insn:site.insn ~insn_addr:site.addr ~insn_len:site.len }

(* Emit [pl]'s trampoline at [at], the home a tactic allocated for its
   [pl.size] bytes. *)
let add_trampoline ctx pl ~at =
  let { site; _ } = pl in
  let code =
    Trampoline.emit pl.template ~at ~insn:site.insn ~insn_addr:site.addr
      ~insn_len:site.len
  in
  assert (Bytes.length code = pl.size);
  ctx.trampolines <- (at, code) :: ctx.trampolines

(* Where a tactic put a site's trampoline: its address, the bytes of
   prefix padding (T1) and the distance from the site to the evicted
   instruction (T2/T3; 0 when nothing was evicted). *)
type placed = { tramp : int; pad : int; evictee_distance : int }

(* The [4 - free] displacement bytes of a jump at [jmp_off] that the text
   already fixes. *)
let fixed_bytes ctx ~jmp_off ~free =
  List.init (4 - free) (fun i -> byte ctx (jmp_off + 1 + free + i))

(* The pun geometry at [addr]/[len]/[pad]: checks locks and text bounds,
   reads the fixed displacement bytes, and returns the free byte count
   and the target window. The [Error] carries why the jump cannot be
   placed at all. *)
let pun_window ctx ~reach ~addr ~len ~pad =
  let jmp_off = addr + pad in
  let free = free_bytes_of ~len ~pad in
  let mod_hi = max (addr + len) (jmp_off + 1 + free) in
  if not (Lock.all_unlocked ctx.locks ~addr ~len:(mod_hi - addr)) then
    Error Obs.Locked
  else if free < 4 && not (in_text ctx (jmp_off + 4)) then Error Obs.Pun_miss
  else
    let fixed = fixed_bytes ctx ~jmp_off ~free in
    let lo, hi = window ~reach ~jmp_end:(jmp_off + 5) ~free ~fixed in
    if lo > hi then Error Obs.Range else Ok (lo, hi)

(* Write the (validated, allocated) jump. Punned bytes are asserted, not
   written: a mismatch would mean the caller's window arithmetic is wrong. *)
let write_jump ctx ~addr ~len ~pad ~target =
  let jmp_off = addr + pad in
  let jmp_end = jmp_off + 5 in
  let free = free_bytes_of ~len ~pad in
  for i = 0 to pad - 1 do
    set_byte ctx (addr + i) pad_prefixes.(i mod Array.length pad_prefixes)
  done;
  set_byte ctx jmp_off 0xe9;
  let rel = Pun.rel32_for ~jmp_end ~target in
  let rel_bytes = Pun.rel32_bytes rel in
  for q = 0 to 3 do
    let a = jmp_off + 1 + q in
    if q < free then set_byte ctx a rel_bytes.(q)
    else assert (byte ctx a = rel_bytes.(q))
  done;
  (* The displaced instruction's tail, if any, is unreachable: instruction
     starts are the only possible jump targets. It stays unmodified and
     unlocked but is marked dead — a later T3 may squat a jump there. *)
  Lock.lock_range ctx.locks ~addr ~len:(pad + 5);
  if addr + len > jmp_end then
    Lock.lock_range ctx.dead ~addr:jmp_end ~len:(addr + len - jmp_end)

(* ------------------------------------------------------------------ *)
(* B1 / B2 / T1: direct, punned and padded jumps                       *)
(* ------------------------------------------------------------------ *)

(* One pun attempt at a given padding level; pad 0 is B1 (a 5-byte or
   longer instruction) or B2 (a shorter one). *)
let try_pun ctx pl ~pad =
  let { site; _ } = pl in
  if pad > max 0 (site.len - 1) then Error Obs.Too_short
  else
    match pun_window ctx ~reach:pl.reach ~addr:site.addr ~len:site.len ~pad with
    | Error r -> Error r
    | Ok (lo, hi) -> (
        match guarded ctx (Layout.alloc ~size:pl.size ~lo ~hi) with
        | Error r -> Error r
        | Ok t ->
            write_jump ctx ~addr:site.addr ~len:site.len ~pad ~target:t;
            add_trampoline ctx pl ~at:t;
            Ok { tramp = t; pad; evictee_distance = 0 })

let try_t1 ctx pl =
  (* One Attempt record for the whole pad sweep: the last reject reason is
     the one that killed the final (largest-window) padding level. *)
  let rec go pad last =
    if pad > pl.site.len - 1 then Error last
    else
      match try_pun ctx pl ~pad with
      | Ok _ as placed -> placed
      | Error reason -> go (pad + 1) reason
  in
  go 1 Obs.Too_short

(* ------------------------------------------------------------------ *)
(* T2: successor eviction                                              *)
(* ------------------------------------------------------------------ *)

(* T2 tries several paddings; its reject reason is the strongest among
   its own failed queries: an injected refusal, then a dynamic conflict,
   then a dead window. *)
let worse a b =
  match (a, b) with
  | Obs.Injected, _ | _, Obs.Injected -> Obs.Injected
  | Obs.Alloc_conflict, _ | _, Obs.Alloc_conflict -> Obs.Alloc_conflict
  | _ -> Obs.Dead_window

(* The paper's two-step T2: evict the successor S to the first-fit
   evictee home, then "reapply B2/T1" with whatever bytes resulted. *)
let try_t2 ctx pl =
  let { site; _ } = pl in
  let k = site.len in
  let s_addr = site.addr + k in
  if Frontend.length_at ctx.index s_addr = 0 then Error Obs.No_successor
  else
    let s = Frontend.decode_at ctx.index s_addr in
    if not (Trampoline.displaceable s.insn) then Error Obs.No_successor
    else if not (Lock.all_unlocked ctx.locks ~addr:site.addr ~len:k) then
      Error Obs.Locked
    else
      match plan s Trampoline.Empty with
      | Error r -> Error r
      | Ok ev -> (
          (* The successor's own (pad-0) pun geometry. *)
          match pun_window ctx ~reach:ev.reach ~addr:s_addr ~len:s.len ~pad:0 with
          | Error r -> Error r
          | Ok (s_lo, s_hi) ->
              (* Commit with S evicted to [t_s] and the patch jump at
                 [pad]: the patch pun's fixed bytes are then [e9] plus
                 the low bytes of S's new displacement. The patch home
                 is found beside [t_s], and both are claimed together
                 only once it is. *)
              let commit ~pad t_s =
                let rel_s =
                  Pun.rel32_bytes
                    (Pun.rel32_for ~jmp_end:(s_addr + 5) ~target:t_s)
                in
                let fixed =
                  0xe9 :: List.init (max 0 (pad + 4 - k)) (Array.get rel_s)
                in
                let lo, hi =
                  window ~reach:pl.reach ~jmp_end:(site.addr + pad + 5)
                    ~free:(k - pad - 1) ~fixed
                in
                match alloc_fault ctx with
                | Error r -> Error r
                | Ok () -> (
                    match
                      guarded ctx
                        (Layout.alloc_beside ~taken:(t_s, ev.size)
                           ~size:pl.size ~lo ~hi)
                    with
                    | Error r -> Error r
                    | Ok t_p ->
                        (* Evict S first so the patch pun's fixed bytes
                           read S's final representation. *)
                        write_jump ctx ~addr:s_addr ~len:s.len ~pad:0
                          ~target:t_s;
                        add_trampoline ctx ev ~at:t_s;
                        write_jump ctx ~addr:site.addr ~len:k ~pad ~target:t_p;
                        add_trampoline ctx pl ~at:t_p;
                        Ok { tramp = t_p; pad; evictee_distance = k })
              in
              (* Only a patch pun that overlaps S needs S evicted. *)
              let rec go pad why =
                if pad > k - 1 then Error why
                else if k - pad - 1 >= 4 then go (pad + 1) why
                else
                  match
                    Result.bind
                      (guarded ctx
                         (Layout.probe ~size:ev.size ~lo:s_lo ~hi:s_hi))
                      (commit ~pad)
                  with
                  | Ok _ as placed -> placed
                  | Error r -> go (pad + 1) (worse why r)
              in
              go 0 Obs.Dead_window)

(* ------------------------------------------------------------------ *)
(* T3: neighbour eviction                                              *)
(* ------------------------------------------------------------------ *)

(* Enumeration order for pinned-byte candidates: a full-period affine walk
   so that a capped search still spreads over the whole value space. *)
let candidate_seq ~combos ~tries i =
  if combos <= tries then i else i * 2654435761 land (combos - 1)

(* Commit the short jump J_short at the patch site, targeting [jp]. The
   patch instruction's own tail becomes dead (the paper's observation that
   byte 2 of Figure 1 T3 stays unlocked — reusable later). *)
let write_short_jump ctx (site : Frontend.site) ~jp =
  set_byte ctx site.addr 0xeb;
  set_byte ctx (site.addr + 1) (jp - (site.addr + 2));
  Lock.lock_range ctx.locks ~addr:site.addr ~len:2;
  if site.len > 2 then
    Lock.lock_range ctx.dead ~addr:(site.addr + 2) ~len:(site.len - 2)

(* T3, squat variant: an earlier patch left dead bytes within short-jump
   range (the tail of an instruction whose head became a jump). J_patch
   can live there directly — the victim "is itself a patch location", so
   no eviction and no extra trampoline are needed. *)
let try_t3_squat ctx pl =
  let { site; _ } = pl in
  let is_dead a = Lock.locked ctx.dead a && not (Lock.locked ctx.locks a) in
  let rec go a =
    if a > site.addr + 2 + 127 then None
    else if not (is_dead a) then go (a + 1)
    else
      let rec run n = if n < 4 && is_dead (a + 1 + n) then run (n + 1) else n in
      let len = 1 + run 0 in
      match pun_window ctx ~reach:pl.reach ~addr:a ~len ~pad:0 with
      | Error _ -> go (a + 1)
      | Ok (lo, hi) -> (
          match guarded ctx (Layout.alloc ~size:pl.size ~lo ~hi) with
          | Error _ -> go (a + 1)
          | Ok t_p ->
              write_jump ctx ~addr:a ~len ~pad:0 ~target:t_p;
              add_trampoline ctx pl ~at:t_p;
              write_short_jump ctx site ~jp:a;
              Some (t_p, a))
  in
  go (site.addr + 2)

(* J_patch may start at any victim byte except the first. Prefer
   positions where both J_patch and J_victim keep at least one free
   displacement byte (j in [2, len-2]); the extremes pin one of the two
   jumps to an exact target and almost never allocate. *)
let t3_positions (v : Frontend.site) =
  let good = List.rev (List.init (max 0 (v.len - 3)) (fun i -> i + 2)) in
  let extras = if v.len - 1 >= 2 then [ v.len - 1; 1 ] else [ 1 ] in
  good @ List.filter (fun j -> not (List.mem j good)) extras

(* T3 with J_patch at byte [j] of victim [ev.site]: walk candidate
   J_patch homes (one per value of the low bytes J_victim pins) until
   J_victim can pun over one. Returns the patch trampoline, or the budget
   left. *)
let t3_position ctx pl ev j ~budget =
  let site = pl.site and v = ev.site in
  let jp = v.addr + j in
  let rel8 = jp - (site.addr + 2) in
  let fp = free_bytes_of ~len:(v.len - j) ~pad:0 in
  (* Lock check over everything T3 modifies: the J_victim bytes, the
     J_patch bytes, and (for j >= 5) both ranges. *)
  if rel8 < 0 || rel8 > 127
     || not
          (Lock.all_unlocked ctx.locks ~addr:v.addr ~len:5
          && Lock.all_unlocked ctx.locks ~addr:jp ~len:(1 + fp))
     || not (fp = 4 || in_text ctx (jp + 4))
  then Error budget
  else
    let jp_lo, jp_hi =
      window ~reach:pl.reach ~jmp_end:(jp + 5) ~free:fp
        ~fixed:(fixed_bytes ctx ~jmp_off:jp ~free:fp)
    in
    (* Displacement bytes of J_patch read back by J_victim. *)
    let n_pin = min (max 0 (4 - j)) fp in
    let fv = min (j - 1) 4 in
    let combos = 1 lsl (8 * n_pin) in
    (* Cap per-position probes so the budget spreads over many victims
       rather than drowning in one 2^16 value space. *)
    let tries = min combos (min budget 256) in
    let commit t_p =
      (* J_victim's fixed displacement bytes are now known: positions
         fv..3 map onto [e9; J_patch rel32 ...]. *)
      let rel_p =
        Pun.rel32_bytes (Pun.rel32_for ~jmp_end:(jp + 5) ~target:t_p)
      in
      let fixed =
        List.init (4 - fv) (fun i ->
            let pos = fv + i in
            if pos = j - 1 then 0xe9 else rel_p.(pos - j))
      in
      let v_lo, v_hi =
        window ~reach:ev.reach ~jmp_end:(v.addr + 5) ~free:fv ~fixed
      in
      (* Queries first, claims last: [t_p] is free (the strided probe
         found it), and J_victim's home is found as if it were taken. *)
      if Result.is_error (alloc_fault ctx) then None
      else
        match
          probe_unfaulted ctx
            (Layout.probe_beside ~taken:(t_p, pl.size) ~size:ev.size ~lo:v_lo
               ~hi:v_hi)
        with
        | Some t_v when Result.is_ok (alloc_fault ctx) ->
            Layout.claim ctx.layout ~addr:t_v ~size:ev.size;
            Layout.claim ctx.layout ~addr:t_p ~size:pl.size;
            (* Write J_patch first: J_victim puns over it. *)
            write_jump ctx ~addr:jp ~len:(v.len - j) ~pad:0 ~target:t_p;
            write_jump ctx ~addr:v.addr ~len:j ~pad:0 ~target:t_v;
            write_short_jump ctx site ~jp;
            add_trampoline ctx pl ~at:t_p;
            add_trampoline ctx ev ~at:t_v;
            Some t_p
        | _ -> None
    in
    let rec candidate i ~budget =
      if i >= tries then Error budget
      else
        let w = candidate_seq ~combos ~tries i in
        match
          Option.bind
            (probe_unfaulted ctx
               (Layout.probe_strided ~size:pl.size ~lo:(jp_lo + w) ~hi:jp_hi
                  ~stride:combos))
            commit
        with
        | Some t_p -> Ok t_p
        | None -> candidate (i + 1) ~budget:(budget - 1)
    in
    (* Every strided start lies in [jp_lo, jp_hi]: when no start there
       fits at all, each probe would fail, so charge the position's
       budget and skip it. The skipped probes still count as [Alloc]
       fault occurrences, so a fault schedule fires on the same queries
       either way. *)
    if
      Layout.probe_strided ctx.layout ~size:pl.size ~lo:jp_lo ~hi:jp_hi
        ~stride:1
      = None
    then begin
      if not (Fault.is_none ctx.fault) then
        for _ = 1 to tries do
          ignore (Fault.fires ctx.fault Fault.Alloc)
        done;
      Error (budget - tries)
    end
    else candidate 0 ~budget

(* T3's victims: the displaceable instructions after the patch site
   within short-jump range (S1 restricts the short jump to positive
   offsets), in address order, each tried at its J_patch positions in
   preference order until one places or the budget runs out. Only a
   start of two bytes or more is decoded. Returns the patch trampoline
   and the victim's address, or the budget left. *)
let t3_search ctx pl ~budget =
  let { site; _ } = pl in
  let rec victim a ~budget =
    if budget <= 0 || a > site.addr + 2 + 127 then Error budget
    else if Frontend.length_at ctx.index a < 2 then victim (a + 1) ~budget
    else
      let v = Frontend.decode_at ctx.index a in
      let next () = victim (a + 1) ~budget in
      if not (Trampoline.displaceable v.insn) then next ()
      else
        match plan v Trampoline.Empty with
        | Error _ -> next ()
        | Ok ev ->
            let rec position js ~budget =
              match js with
              | j :: js when budget > 0 -> (
                  match t3_position ctx pl ev j ~budget with
                  | Ok t_p -> Ok (t_p, v.addr)
                  | Error budget -> position js ~budget)
              | _ -> victim (a + 1) ~budget
            in
            position (t3_positions v) ~budget
  in
  victim (site.addr + 1) ~budget

let try_t3 ctx pl =
  let { site; _ } = pl in
  let placed (t_p, evictee) =
    Ok { tramp = t_p; pad = 0; evictee_distance = evictee - site.addr }
  in
  if site.len < 2 then Error Obs.Too_short
    (* the short jump needs two bytes (L2) *)
  else if not (Lock.all_unlocked ctx.locks ~addr:site.addr ~len:2) then
    Error Obs.Locked
  else begin
    (* T3's own injected refusals, squat and search alike, are the
       [Alloc] fires between here and its verdict. *)
    let fired = Fault.fired ctx.fault Fault.Alloc in
    match try_t3_squat ctx pl with
    | Some at -> placed at
    | None -> (
        match t3_search ctx pl ~budget:t3_budget with
        | Ok at -> placed at
        | Error budget ->
            Error
              (if budget <= 0 then Obs.Budget
               else if Fault.fired ctx.fault Fault.Alloc > fired then
                 Obs.Injected
               else Obs.Range))
  end

(* ------------------------------------------------------------------ *)
(* B0: int3 + SIGTRAP handler                                          *)
(* ------------------------------------------------------------------ *)

let try_b0 ctx pl =
  let { site; _ } = pl in
  if not (Lock.all_unlocked ctx.locks ~addr:site.addr ~len:1) then
    Error Obs.Locked
  else if Fault.fires ctx.fault Fault.B0_alloc then Error Obs.Injected
  else
    (* The plan's window is B0's: the trampoline's return jump still
       needs rel32 reach. Raw [Layout.alloc], not [guarded]: B0 is the
       degradation target for injected allocator exhaustion and must stay
       refusable only through its own [B0_alloc] site. *)
    let lo, hi = pl.window in
    match Layout.alloc ctx.layout ~size:pl.size ~lo ~hi with
    | Error d -> Error (reason_of_denial d)
    | Ok t ->
        set_byte ctx site.addr 0xcc;
        Lock.lock ctx.locks site.addr;
        if site.len > 1 then
          Lock.lock_range ctx.dead ~addr:(site.addr + 1) ~len:(site.len - 1);
        ctx.traps <-
          { Loadmap.patch_addr = site.addr; trampoline_addr = t } :: ctx.traps;
        add_trampoline ctx pl ~at:t;
        Ok { tramp = t; pad = 0; evictee_distance = 0 }

(* ------------------------------------------------------------------ *)
(* Driver: the paper's escalation order                                *)
(* ------------------------------------------------------------------ *)

let log_src = Logs.Src.create "e9.tactics" ~doc:"E9Patch tactic decisions"

module Log = (val Logs.src_log log_src)

(* A site no trampoline can displace gets no plan and no attempt, B0's
   included. A site whose plan fails (its reach clamps every window to
   empty) is rejected for that reason by every tactic of the ladder;
   the rest of the rewrite goes on. *)
let patch ctx (site : Frontend.site) template =
  let o = ctx.opts in
  let ladder =
    List.filter
      (fun (on, _, _) -> on)
      [ ( o.enable_base,
          (if site.len >= 5 then Obs.B1 else Obs.B2),
          fun ctx pl -> try_pun ctx pl ~pad:0 );
        (o.enable_t1, Obs.T1, try_t1);
        (o.enable_t2, Obs.T2, try_t2);
        (o.enable_t3, Obs.T3, try_t3);
        (o.b0_fallback, Obs.B0, try_b0) ]
  in
  let reject tactic reason =
    Obs.reject ctx.obs ~addr:site.addr ~tactic ~reason
  in
  let outcome =
    if not (Trampoline.displaceable site.insn) then None
    else
      match plan site template with
      | Error reason ->
          List.iter (fun (_, tactic, _) -> reject tactic reason) ladder;
          None
      | Ok pl ->
          List.find_map
            (fun (_, tactic, attempt) ->
              match attempt ctx pl with
              | Ok { tramp; pad; evictee_distance } ->
                  Obs.accept ctx.obs ~addr:site.addr ~tactic ~trampoline:tramp
                    ~pad ~evictee_distance;
                  Some (tactic, tramp)
              | Error reason ->
                  reject tactic reason;
                  None)
            ladder
  in
  (match outcome with
  | Some (tactic, tramp) ->
      Log.debug (fun m ->
          m "0x%x %s -> %s, trampoline 0x%x" site.addr
            (Insn.to_string site.insn)
            (Stats.tactic_name tactic) tramp)
  | None ->
      Log.info (fun m ->
          m "0x%x %s: all tactics failed" site.addr
            (Insn.to_string site.insn)));
  Obs.site ctx.obs ~addr:site.addr ~tactic:(Option.map fst outcome);
  Option.map fst outcome
