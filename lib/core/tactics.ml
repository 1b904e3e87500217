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
  t2_joint : bool;
  t2_cap : int;
  t3_cap : int;
}

let default_options =
  { enable_base = true;
    enable_t1 = true;
    enable_t2 = true;
    enable_t3 = true;
    b0_fallback = false;
    t2_joint = false;
    t2_cap = 64;
    t3_cap = 8192 }

type ctx = {
  text : Buf.t;
  text_base : int;
  layout : Layout.t;
  sites : Frontend.site array;
  index_of : (int, int) Hashtbl.t;
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
  (* Set when an injected refusal contributed to the current tactic's
     failure, so the Obs reject reason reads [Injected] rather than a
     spurious [Alloc_conflict]; consumed (and cleared) at reject time. *)
  mutable injected : bool;
  (* Per-site accumulation of why Layout queries failed (reset at the top
     of [patch]): feeds the typed reject reasons. *)
  mutable dead_denied : bool;
  mutable dyn_denied : bool;
}

(* E9_obs sits below this library, so it carries its own copy of the
   tactic enum; keep the two in sync here. *)
let obs_tactic = function
  | Stats.B0 -> Obs.B0
  | Stats.B1 -> Obs.B1
  | Stats.B2 -> Obs.B2
  | Stats.T1 -> Obs.T1
  | Stats.T2 -> Obs.T2
  | Stats.T3 -> Obs.T3

let create_ctx ?(obs = Obs.null) ?(fault = Fault.none) ~text ~text_base
    ~layout ~sites ~options () =
  let index_of = Hashtbl.create (Array.length sites) in
  Array.iteri (fun i (s : Frontend.site) -> Hashtbl.replace index_of s.addr i) sites;
  { text;
    text_base;
    layout;
    sites;
    index_of;
    locks = Lock.create ~base:text_base ~len:(Buf.length text);
    dead = Lock.create ~base:text_base ~len:(Buf.length text);
    trampolines = [];
    traps = [];
    opts = options;
    obs;
    fault;
    injected = false;
    dead_denied = false;
    dyn_denied = false }

let trampolines ctx = List.rev ctx.trampolines
let trap_entries ctx = List.rev ctx.traps
let locks ctx = ctx.locks

(* ------------------------------------------------------------------ *)
(* Fault-guarded allocator queries                                      *)
(* ------------------------------------------------------------------ *)

(* Every jump-tactic Layout query funnels through these, so an [Alloc]
   rule can deterministically refuse "the Nth allocation" whatever
   tactic issues it. B0's own allocation is deliberately NOT guarded by
   the [Alloc] site (it has its own [B0_alloc] site in [try_b0]): the
   paper's always-succeeds fallback must keep succeeding when the jump
   tactics are starved, or injected exhaustion could never be degraded
   to a verified rewrite. [Layout.release] is never guarded — refusing
   to give memory back models no real failure and would corrupt the
   arena's books. *)

let inj ctx = ctx.injected <- true

let take_injected ctx =
  let v = ctx.injected in
  ctx.injected <- false;
  v

(* Record why the Layout query that just failed failed (valid only
   immediately after a failing call; see Layout.last_denial). *)
let note_denial ctx =
  match Layout.last_denial ctx.layout with
  | Layout.Dead_window -> ctx.dead_denied <- true
  | Layout.Conflict -> ctx.dyn_denied <- true
  | Layout.No_denial -> ()

(* The typed reject reason for a query that just returned [None]:
   injected refusal first (the Layout state is stale in that case), then
   the allocator's own classification, with [default] naming the
   tactic's historical reason for a genuine dynamic conflict. *)
let denial_reason ctx ~default =
  if take_injected ctx then Obs.Injected
  else
    match Layout.last_denial ctx.layout with
    | Layout.Dead_window -> Obs.Dead_window
    | Layout.Conflict | Layout.No_denial -> default

let alloc_g ctx ~size ~lo ~hi =
  if Fault.fires ctx.fault Fault.Alloc then begin inj ctx; None end
  else
    match Layout.alloc ctx.layout ~size ~lo ~hi with
    | None ->
        note_denial ctx;
        None
    | r -> r

let probe_g ctx ~size ~lo ~hi =
  if Fault.fires ctx.fault Fault.Alloc then begin inj ctx; None end
  else
    match Layout.probe ctx.layout ~size ~lo ~hi with
    | None ->
        note_denial ctx;
        None
    | r -> r

let probe_strided_g ctx ~size ~lo ~hi ~stride =
  if Fault.fires ctx.fault Fault.Alloc then begin inj ctx; None end
  else
    match Layout.probe_strided ctx.layout ~size ~lo ~hi ~stride with
    | None ->
        note_denial ctx;
        None
    | r -> r

let alloc_at_g ctx ~addr ~size =
  if Fault.fires ctx.fault Fault.Alloc then begin inj ctx; false end
  else if Layout.alloc_at ctx.layout ~addr ~size then true
  else begin
    note_denial ctx;
    false
  end

(* ------------------------------------------------------------------ *)
(* Text access                                                         *)
(* ------------------------------------------------------------------ *)

let in_text ctx addr =
  addr >= ctx.text_base && addr < ctx.text_base + Buf.length ctx.text

let byte ctx addr = Buf.get_u8 ctx.text (addr - ctx.text_base)
let set_byte ctx addr v = Buf.set_u8 ctx.text (addr - ctx.text_base) v
let site_index ctx addr = Hashtbl.find_opt ctx.index_of addr

(* An instruction the trampoline generator can displace. *)
let displaceable = function
  | Insn.Int3 | Insn.Ud2 | Insn.Unknown _ -> false
  | Insn.Mov _ | Insn.Movabs _ | Insn.Lea _ | Insn.Alu _ | Insn.Imul _
  | Insn.Movzx _ | Insn.Movsx _ | Insn.Setcc _ | Insn.Cmov _ | Insn.Neg _
  | Insn.Not _ | Insn.Inc _ | Insn.Dec _ | Insn.Shift _ | Insn.Push _
  | Insn.Pop _ | Insn.Pushfq | Insn.Popfq | Insn.Call _ | Insn.Call_ind _
  | Insn.Ret | Insn.Jmp _ | Insn.Jmp_short _ | Insn.Jmp_ind _ | Insn.Jcc _
  | Insn.Jcc_short _ | Insn.Nop _ | Insn.Endbr64 | Insn.Int _
  | Insn.Syscall ->
      true

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

let clamp_window ~jmp_end (lo, hi) =
  ( max lo (jmp_end - 0x8000_0000 + reach_margin),
    min hi (jmp_end + 0x7fff_ffff - reach_margin) )

(* The pun geometry at [addr]/[len]/[pad]: checks locks and text bounds,
   reads the fixed displacement bytes, and returns the target window.
   The [Error] carries why the jump cannot be placed at all. *)
let pun_window ctx ~addr ~len ~pad =
  let jmp_off = addr + pad in
  let jmp_end = jmp_off + 5 in
  let free = free_bytes_of ~len ~pad in
  let mod_hi = max (addr + len) (jmp_off + 1 + free) in
  if not (Lock.all_unlocked ctx.locks ~addr ~len:(mod_hi - addr)) then
    Error Obs.Locked
  else if free < 4 && not (in_text ctx (jmp_off + 4)) then Error Obs.Pun_miss
  else begin
    let fixed =
      List.init (4 - free) (fun i -> byte ctx (jmp_off + 1 + free + i))
    in
    let fixed_high = Pun.fixed_high_of_bytes fixed in
    let lo, hi =
      clamp_window ~jmp_end
        (Pun.target_window ~jmp_end ~free_bytes:free ~fixed_high)
    in
    if lo > hi then Error Obs.Range else Ok (jmp_end, free, lo, hi)
  end

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

let add_trampoline ctx addr code = ctx.trampolines <- (addr, code) :: ctx.trampolines

(* One pun attempt at a given padding level; emits the patch trampoline. *)
let try_pun ctx (site : Frontend.site) template ~pad =
  if pad > max 0 (site.len - 1) then Error Obs.Too_short
  else
    match pun_window ctx ~addr:site.addr ~len:site.len ~pad with
    | Error _ as e -> e
    | Ok (_, _, lo, hi) -> (
        let tsize =
          Trampoline.size template ~insn:site.insn ~insn_addr:site.addr
            ~insn_len:site.len
        in
        match alloc_g ctx ~size:tsize ~lo ~hi with
        | None -> Error (denial_reason ctx ~default:Obs.Alloc_conflict)
        | Some t ->
            write_jump ctx ~addr:site.addr ~len:site.len ~pad ~target:t;
            add_trampoline ctx t
              (Trampoline.emit template ~at:t ~insn:site.insn
                 ~insn_addr:site.addr ~insn_len:site.len);
            Ok t)

(* ------------------------------------------------------------------ *)
(* B1 / B2: direct and punned jumps                                    *)
(* ------------------------------------------------------------------ *)

let try_b1_b2 ctx (site : Frontend.site) template =
  let tactic = if site.len >= 5 then Stats.B1 else Stats.B2 in
  match try_pun ctx site template ~pad:0 with
  | Ok t ->
      Obs.accept ctx.obs ~addr:site.addr ~tactic:(obs_tactic tactic)
        ~trampoline:t ~pad:0 ~evictee_distance:0;
      Some (tactic, t)
  | Error reason ->
      Obs.reject ctx.obs ~addr:site.addr ~tactic:(obs_tactic tactic) ~reason;
      None

(* ------------------------------------------------------------------ *)
(* T1: padded jumps                                                    *)
(* ------------------------------------------------------------------ *)

let try_t1 ctx (site : Frontend.site) template =
  (* One Attempt record for the whole pad sweep: the last reject reason is
     the one that killed the final (largest-window) padding level. *)
  let rec go pad last =
    if pad > site.len - 1 then Error last
    else
      match try_pun ctx site template ~pad with
      | Ok t -> Ok (t, pad)
      | Error reason -> go (pad + 1) reason
  in
  match go 1 Obs.Too_short with
  | Ok (t, pad) ->
      Obs.accept ctx.obs ~addr:site.addr ~tactic:Obs.T1 ~trampoline:t ~pad
        ~evictee_distance:0;
      Some (Stats.T1, t)
  | Error reason ->
      Obs.reject ctx.obs ~addr:site.addr ~tactic:Obs.T1 ~reason;
      None

(* ------------------------------------------------------------------ *)
(* T2: successor eviction (joint pun search)                           *)
(* ------------------------------------------------------------------ *)

(* Enumeration order for pinned-byte candidates: a full-period affine walk
   so that a capped search still spreads over the whole value space. *)
let candidate_seq ~combos ~tries i =
  if combos <= tries then i else i * 2654435761 land (combos - 1)

let try_t2 ctx (site : Frontend.site) template =
  let k = site.len in
  let s_addr = site.addr + k in
  let rejected reason =
    Obs.reject ctx.obs ~addr:site.addr ~tactic:Obs.T2 ~reason;
    None
  in
  match site_index ctx s_addr with
  | None -> rejected Obs.No_successor
  | Some si ->
      let s = ctx.sites.(si) in
      if not (displaceable s.insn) then rejected Obs.No_successor
      else if not (Lock.all_unlocked ctx.locks ~addr:site.addr ~len:k) then
        rejected Obs.Locked
      else begin
        (* The successor's own (pad-0) pun geometry. *)
        match pun_window ctx ~addr:s_addr ~len:s.len ~pad:0 with
        | Error reason -> rejected reason
        | Ok (_, s_free, s_lo, s_hi) ->
            let s_fixed =
              List.init (4 - s_free) (fun i -> byte ctx (s_addr + 1 + s_free + i))
            in
            let ev_size =
              Trampoline.size Trampoline.Empty ~insn:s.insn ~insn_addr:s_addr
                ~insn_len:s.len
            in
            let tsize =
              Trampoline.size template ~insn:site.insn ~insn_addr:site.addr
                ~insn_len:k
            in
            let result = ref None in
            let budget = ref ctx.opts.t2_cap in
            let pad = ref 0 in
            while !result = None && !pad <= k - 1 && !budget > 0 do
              let p = !pad in
              let p_jmp_end = site.addr + p + 5 in
              let p_free = k - p - 1 in
              (* Only useful when the patch pun actually overlaps S. *)
              if p_free < 4 then begin
                (* S displacement bytes read by the patch pun. *)
                let n_over = max 0 (p + 4 - k) in
                (* Try to commit with S evicted to [t_s]; the patch pun's
                   fixed bytes are then [e9] plus S's displacement bytes. *)
                let commit_with t_s =
                  let rel_s = (t_s - (s_addr + 5)) land 0xffff_ffff in
                  let over_bytes =
                    List.init n_over (fun q ->
                        if q < s_free then (rel_s lsr (8 * q)) land 0xff
                        else List.nth s_fixed (q - s_free))
                  in
                  let p_fixed_high =
                    Pun.fixed_high_of_bytes (0xe9 :: over_bytes)
                  in
                  let p_lo, p_hi =
                    clamp_window ~jmp_end:p_jmp_end
                      (Pun.target_window ~jmp_end:p_jmp_end ~free_bytes:p_free
                         ~fixed_high:p_fixed_high)
                  in
                  if alloc_at_g ctx ~addr:t_s ~size:ev_size then begin
                    match alloc_g ctx ~size:tsize ~lo:p_lo ~hi:p_hi with
                    | None ->
                        Layout.release ctx.layout ~addr:t_s ~size:ev_size;
                        false
                    | Some t_p ->
                        (* Evict S first so the patch pun's fixed bytes read
                           S's final representation. *)
                        write_jump ctx ~addr:s_addr ~len:s.len ~pad:0
                          ~target:t_s;
                        add_trampoline ctx t_s
                          (Trampoline.emit_evictee ~at:t_s ~insn:s.insn
                             ~insn_addr:s_addr ~insn_len:s.len);
                        write_jump ctx ~addr:site.addr ~len:k ~pad:p
                          ~target:t_p;
                        add_trampoline ctx t_p
                          (Trampoline.emit template ~at:t_p ~insn:site.insn
                             ~insn_addr:site.addr ~insn_len:k);
                        result := Some (t_p, p);
                        true
                  end
                  else false
                in
                if not ctx.opts.t2_joint then begin
                  (* The paper's two-step T2: evict S to the first-fit
                     evictee home, then "reapply B2/T1" with whatever bytes
                     resulted. No joint optimization. *)
                  budget := !budget - 1;
                  match probe_g ctx ~size:ev_size ~lo:s_lo ~hi:s_hi with
                  | None -> ()
                  | Some t_s -> ignore (commit_with t_s)
                end
                else begin
                  (* Extension: jointly choose S's displacement so the
                     patch pun's window becomes allocatable. *)
                  let n_pin = min n_over s_free in
                  let combos = 1 lsl (8 * n_pin) in
                  let tries = min combos !budget in
                  let i = ref 0 in
                  while !result = None && !i < tries do
                    budget := !budget - 1;
                    let v = candidate_seq ~combos ~tries !i in
                    let over_bytes =
                      List.init n_over (fun q ->
                          if q < n_pin then (v lsr (8 * q)) land 0xff
                          else List.nth s_fixed (q - s_free))
                    in
                    let p_fixed_high =
                      Pun.fixed_high_of_bytes (0xe9 :: over_bytes)
                    in
                    let p_lo, p_hi =
                      clamp_window ~jmp_end:p_jmp_end
                        (Pun.target_window ~jmp_end:p_jmp_end
                           ~free_bytes:p_free ~fixed_high:p_fixed_high)
                    in
                    (match probe_g ctx ~size:tsize ~lo:p_lo ~hi:p_hi with
                    | None -> ()
                    | Some _ -> (
                        let stride = 1 lsl (8 * n_pin) in
                        match
                          probe_strided_g ctx ~size:ev_size
                            ~lo:(s_lo + v) ~hi:s_hi ~stride
                        with
                        | None -> ()
                        | Some t_s -> ignore (commit_with t_s)));
                    incr i
                  done
                end
              end;
              incr pad
            done;
            (match !result with
            | Some (t_p, p) ->
                Obs.accept ctx.obs ~addr:site.addr ~tactic:Obs.T2
                  ~trampoline:t_p ~pad:p ~evictee_distance:k;
                Some (Stats.T2, t_p)
            | None ->
                rejected
                  (if !budget <= 0 then Obs.Budget
                   else if take_injected ctx then Obs.Injected
                   else if ctx.dyn_denied then Obs.Alloc_conflict
                   else if ctx.dead_denied then Obs.Dead_window
                   else Obs.Alloc_conflict))
      end

(* ------------------------------------------------------------------ *)
(* T3: neighbour eviction                                              *)
(* ------------------------------------------------------------------ *)

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
let try_t3_squat ctx (site : Frontend.site) template tsize =
  let is_dead a = Lock.locked ctx.dead a && not (Lock.locked ctx.locks a) in
  let result = ref None in
  let a = ref (site.addr + 2) in
  while !result = None && !a <= site.addr + 2 + 127 do
    if is_dead !a then begin
      let rec run n = if n < 4 && is_dead (!a + 1 + n) then run (n + 1) else n in
      let free = run 0 in
      match pun_window ctx ~addr:!a ~len:(1 + free) ~pad:0 with
      | Error _ -> ()
      | Ok (_, _, lo, hi) -> (
          match alloc_g ctx ~size:tsize ~lo ~hi with
          | None -> ()
          | Some t_p ->
              write_jump ctx ~addr:!a ~len:(1 + free) ~pad:0 ~target:t_p;
              add_trampoline ctx t_p
                (Trampoline.emit template ~at:t_p ~insn:site.insn
                   ~insn_addr:site.addr ~insn_len:site.len);
              write_short_jump ctx site ~jp:!a;
              result := Some (t_p, !a))
    end;
    incr a
  done;
  !result

let try_t3 ctx (site : Frontend.site) template =
  let rejected reason =
    Obs.reject ctx.obs ~addr:site.addr ~tactic:Obs.T3 ~reason;
    None
  in
  if site.len < 2 then rejected Obs.Too_short
    (* the short jump needs two bytes (L2) *)
  else if not (Lock.all_unlocked ctx.locks ~addr:site.addr ~len:2) then
    rejected Obs.Locked
  else begin
    let tsize =
      Trampoline.size template ~insn:site.insn ~insn_addr:site.addr
        ~insn_len:site.len
    in
    match try_t3_squat ctx site template tsize with
    | Some (t_p, jp) ->
        Obs.accept ctx.obs ~addr:site.addr ~tactic:Obs.T3 ~trampoline:t_p
          ~pad:0 ~evictee_distance:(jp - site.addr);
        Some (Stats.T3, t_p)
    | None ->
    let result = ref None in
    let budget = ref ctx.opts.t3_cap in
    (* Walk candidate victims: following instructions within short-jump
       range. S1 restricts the short jump to positive offsets. *)
    let vi = ref (match site_index ctx site.addr with Some i -> i + 1 | None -> max_int) in
    while
      !result = None && !budget > 0
      && !vi < Array.length ctx.sites
      && ctx.sites.(!vi).addr <= site.addr + 2 + 127
    do
      let v = ctx.sites.(!vi) in
      if displaceable v.insn && v.len >= 2 then begin
        let ev_size =
          Trampoline.size Trampoline.Empty ~insn:v.insn ~insn_addr:v.addr
            ~insn_len:v.len
        in
        (* J_patch may start at any victim byte except the first. Prefer
           positions where both J_patch and J_victim keep at least one free
           displacement byte (j in [2, len-2]); the extremes pin one of the
           two jumps to an exact target and almost never allocate. *)
        let js =
          let good = List.rev (List.init (max 0 (v.len - 3)) (fun i -> i + 2)) in
          let extras = if v.len - 1 >= 2 then [ v.len - 1; 1 ] else [ 1 ] in
          good @ List.filter (fun j -> not (List.mem j good)) extras
        in
        let jq = ref js in
        while !result = None && !jq <> [] && !budget > 0 do
          let j = ref (List.hd !jq) in
          jq := List.tl !jq;
          let jp = v.addr + !j in
          let rel8 = jp - (site.addr + 2) in
          if rel8 >= 0 && rel8 <= 127 then begin
            let fp = free_bytes_of ~len:(v.len - !j) ~pad:0 in
            (* Lock check over everything T3 modifies: the J_victim bytes,
               the J_patch bytes, and (for j >= 5) both ranges. *)
            let mod_ok =
              Lock.all_unlocked ctx.locks ~addr:v.addr ~len:5
              && Lock.all_unlocked ctx.locks ~addr:jp ~len:(1 + fp)
            in
            if mod_ok && (fp = 4 || in_text ctx (jp + 4)) then begin
              let jp_fixed =
                List.init (4 - fp) (fun i -> byte ctx (jp + 1 + fp + i))
              in
              let jp_lo, jp_hi =
                clamp_window ~jmp_end:(jp + 5)
                  (Pun.target_window ~jmp_end:(jp + 5) ~free_bytes:fp
                     ~fixed_high:(Pun.fixed_high_of_bytes jp_fixed))
              in
              (* Displacement bytes of J_patch read back by J_victim. *)
              let n_over = max 0 (4 - !j) in
              let n_pin = min n_over fp in
              let fv = min (!j - 1) 4 in
              let combos = 1 lsl (8 * n_pin) in
              (* Cap per-position probes so the budget spreads over many
                 victims rather than drowning in one 2^16 value space. *)
              let tries = min combos (min !budget 256) in
              let i = ref 0 in
              while !result = None && !i < tries do
                budget := !budget - 1;
                let w = candidate_seq ~combos ~tries !i in
                let stride = 1 lsl (8 * n_pin) in
                (match
                   probe_strided_g ctx ~size:tsize ~lo:(jp_lo + w)
                     ~hi:jp_hi ~stride
                 with
                | None -> ()
                | Some t_p -> (
                    (* J_victim's fixed displacement bytes are now known:
                       position fv..3 map onto [e9; J_patch rel32 ...]. *)
                    let rel_p = Pun.rel32_bytes (Pun.rel32_for ~jmp_end:(jp + 5) ~target:t_p) in
                    let fixed_v =
                      List.init (4 - fv) (fun i ->
                          let pos = fv + i in
                          if pos = !j - 1 then 0xe9
                          else rel_p.(pos - !j))
                    in
                    let v_lo, v_hi =
                      clamp_window ~jmp_end:(v.addr + 5)
                        (Pun.target_window ~jmp_end:(v.addr + 5)
                           ~free_bytes:fv
                           ~fixed_high:(Pun.fixed_high_of_bytes fixed_v))
                    in
                    if alloc_at_g ctx ~addr:t_p ~size:tsize then begin
                      match
                        probe_g ctx ~size:ev_size ~lo:v_lo ~hi:v_hi
                      with
                      | None ->
                          Layout.release ctx.layout ~addr:t_p ~size:tsize
                      | Some t_v ->
                          if not (alloc_at_g ctx ~addr:t_v ~size:ev_size)
                          then Layout.release ctx.layout ~addr:t_p ~size:tsize
                          else begin
                            (* Write J_patch first: J_victim puns over it. *)
                            write_jump ctx ~addr:jp ~len:(v.len - !j) ~pad:0
                              ~target:t_p;
                            write_jump ctx ~addr:v.addr ~len:(!j) ~pad:0
                              ~target:t_v;
                            write_short_jump ctx site ~jp;
                            add_trampoline ctx t_p
                              (Trampoline.emit template ~at:t_p ~insn:site.insn
                                 ~insn_addr:site.addr ~insn_len:site.len);
                            add_trampoline ctx t_v
                              (Trampoline.emit_evictee ~at:t_v ~insn:v.insn
                                 ~insn_addr:v.addr ~insn_len:v.len);
                            result := Some (t_p, v.addr)
                          end
                    end));
                incr i
              done
            end
          end;
          ignore !j
        done
      end;
      incr vi
    done;
    (match !result with
    | Some (t_p, v_addr) ->
        Obs.accept ctx.obs ~addr:site.addr ~tactic:Obs.T3 ~trampoline:t_p
          ~pad:0 ~evictee_distance:(v_addr - site.addr);
        Some (Stats.T3, t_p)
    | None ->
        rejected
          (if !budget <= 0 then Obs.Budget
           else if take_injected ctx then Obs.Injected
           else Obs.Range))
  end

(* ------------------------------------------------------------------ *)
(* B0: int3 + SIGTRAP handler                                          *)
(* ------------------------------------------------------------------ *)

let try_b0 ctx (site : Frontend.site) template =
  let rejected reason =
    Obs.reject ctx.obs ~addr:site.addr ~tactic:Obs.B0 ~reason;
    None
  in
  if not (Lock.all_unlocked ctx.locks ~addr:site.addr ~len:1) then
    rejected Obs.Locked
  else if Fault.fires ctx.fault Fault.B0_alloc then rejected Obs.Injected
  else begin
    let tsize =
      Trampoline.size template ~insn:site.insn ~insn_addr:site.addr
        ~insn_len:site.len
    in
    (* The trampoline's return jump still needs rel32 reach. *)
    let lo, hi =
      clamp_window ~jmp_end:(site.addr + 5)
        (site.addr + 5 - 0x8000_0000, site.addr + 5 + 0x7fff_ffff)
    in
    (* Raw [Layout.alloc], not [alloc_g]: B0 is the degradation target
       for injected allocator exhaustion and must stay refusable only
       through its own [B0_alloc] site. *)
    match Layout.alloc ctx.layout ~size:tsize ~lo ~hi with
    | None ->
        note_denial ctx;
        rejected (denial_reason ctx ~default:Obs.Alloc_conflict)
    | Some t ->
        set_byte ctx site.addr 0xcc;
        Lock.lock ctx.locks site.addr;
        if site.len > 1 then
          Lock.lock_range ctx.dead ~addr:(site.addr + 1) ~len:(site.len - 1);
        ctx.traps <-
          { Loadmap.patch_addr = site.addr; trampoline_addr = t } :: ctx.traps;
        add_trampoline ctx t
          (Trampoline.emit template ~at:t ~insn:site.insn ~insn_addr:site.addr
             ~insn_len:site.len);
        Obs.accept ctx.obs ~addr:site.addr ~tactic:Obs.B0 ~trampoline:t ~pad:0
          ~evictee_distance:0;
        Some (Stats.B0, t)
  end

(* ------------------------------------------------------------------ *)
(* Driver: the paper's escalation order                                *)
(* ------------------------------------------------------------------ *)

let log_src = Logs.Src.create "e9.tactics" ~doc:"E9Patch tactic decisions"

module Log = (val Logs.src_log log_src)

let patch ctx site template =
  ctx.injected <- false;
  ctx.dead_denied <- false;
  ctx.dyn_denied <- false;
  let ( <|> ) a b = match a with Some _ -> a | None -> b () in
  let outcome =
    (if not (displaceable site.Frontend.insn) then None
     else
       (if ctx.opts.enable_base then try_b1_b2 ctx site template else None)
       <|> (fun () -> if ctx.opts.enable_t1 then try_t1 ctx site template else None)
       <|> (fun () -> if ctx.opts.enable_t2 then try_t2 ctx site template else None)
       <|> fun () -> if ctx.opts.enable_t3 then try_t3 ctx site template else None)
    <|> fun () -> if ctx.opts.b0_fallback then try_b0 ctx site template else None
  in
  (match outcome with
  | Some (tactic, tramp) ->
      Log.debug (fun m ->
          m "0x%x %s -> %s, trampoline 0x%x" site.Frontend.addr
            (E9_x86.Insn.to_string site.Frontend.insn)
            (Stats.tactic_name tactic) tramp)
  | None ->
      Log.info (fun m ->
          m "0x%x %s: all tactics failed" site.Frontend.addr
            (E9_x86.Insn.to_string site.Frontend.insn)));
  Obs.site ctx.obs ~addr:site.Frontend.addr
    ~tactic:(Option.map (fun (t, _) -> obs_tactic t) outcome);
  Option.map fst outcome
