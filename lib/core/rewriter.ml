module Buf = E9_bits.Buf
module Fault = E9_fault.Fault

type loader_mode = Table | Stub

exception Error of string

let error fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type options = {
  tactics : Tactics.options;
  granularity : int;
  grouping : bool;
  reserve_below_base : bool;
  loader : loader_mode;
  keep_ranges : (int * int) list;
  chunking : Chunker.params option;
}

let default_options =
  { tactics = Tactics.default_options;
    granularity = 1;
    grouping = true;
    reserve_below_base = false;
    loader = Table;
    keep_ranges = [];
    chunking = None }

(* A stable, injective textual encoding of every options field. Lives
   next to the type so a new field cannot be forgotten without the
   record pattern below failing to compile. The RPC service hashes this
   into its content-addressed cache key (DESIGN.md §13): two options
   values rewrite identically iff their signatures are equal. *)
let options_signature o =
  let { tactics; granularity; grouping; reserve_below_base; loader;
        keep_ranges; chunking } = o in
  let { Tactics.enable_base; enable_t1; enable_t2; enable_t3; b0_fallback;
        t2_joint; t2_cap; t3_cap } = tactics in
  Printf.sprintf
    "base=%b;t1=%b;t2=%b;t3=%b;b0=%b;joint=%b;t2cap=%d;t3cap=%d;M=%d;\
     grouping=%b;shared=%b;loader=%s;keep=%s;chunk=%s"
    enable_base enable_t1 enable_t2 enable_t3 b0_fallback t2_joint t2_cap
    t3_cap granularity grouping reserve_below_base
    (match loader with Table -> "table" | Stub -> "stub")
    (String.concat ","
       (List.map (fun (a, l) -> Printf.sprintf "%x+%x" a l) keep_ranges))
    (match chunking with
    | None -> "off"
    | Some c -> Format.asprintf "%a" Chunker.pp_params c)

type result = {
  output : Elf_file.t;
  stats : Stats.t;
  input_size : int;
  output_size : int;
  trampoline_bytes : int;
  virtual_blocks : int;
  physical_blocks : int;
  mappings : int;
  patched_sites : (int * Stats.tactic) list;
  shards : int;
  steals : int;
  setup_s : float;
  occupancy : Layout.occupancy;
  plan_hits : int;
  plan_misses : int;
  plan_conflicts : int;
}

let default_jobs () =
  match Sys.getenv_opt "E9_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> 1)
  | None -> 1

(* The text decomposition (DESIGN.md §10): one chunk spanning the whole
   text, or content-defined chunks under [options.chunking] (DESIGN.md
   §14) — with each chunk's decoded sites and plan-store state. *)
type geometry = {
  g_bounds : (int * int) array;  (* text-relative (lo, size), ascending *)
  g_sites : Frontend.site list array;
  g_entries : int array;
  g_exits : int array;
  g_keys : string array;  (* "" when no plan store is consulted *)
  g_found : Plan.chunk option array;  (* raw store answers *)
  g_decode_replayed : bool array;
}

(* What one chunk task hands back for the canonical merge. *)
type chunk_out = {
  o_arena : Layout.t;
  o_locks : Lock.t;
  o_dead : Lock.t;
  o_obs : E9_obs.Obs.t;
  o_fault : Fault.t;
  o_stats : Stats.t;
  o_patched : (int * Stats.tactic) list;  (* ascending (built by prepend) *)
  o_tramps : (int * bytes) list;  (* chronological *)
  o_traps : Loadmap.trap list;
  o_deferred : Frontend.site list;  (* descending *)
  o_splans : Plan.site_plan list;  (* processing order; capture mode only *)
  o_replayed : bool;
  o_conflict : bool;
  o_setup : float;
}

(* New cons cells of [l] down to the (physically equal) snapshot [stop],
   returned oldest-first — per-site attribution of the tactics context's
   accumulator lists. *)
let rec fresh_prefix l stop acc =
  if l == stop then acc
  else match l with [] -> acc | x :: tl -> fresh_prefix tl stop (x :: acc)

(* Quarter-log2 distance class of a trampoline placement (telemetry in
   the serialized plan; replay correctness comes from the recorded
   addresses, never from this). *)
let placement_class ~site_addr = function
  | (a, _) :: _ ->
      let rec go d c = if d <= 1 || c >= 63 then c else go (d lsr 2) (c + 1) in
      go (abs (a - site_addr)) 0
  | [] -> 0

let site_eq (a : Frontend.site) (b : Frontend.site) =
  a.addr = b.addr && a.len = b.len && a.insn = b.insn

(* Index of the chunk of [bounds] that contains text offset [off]. *)
let chunk_of bounds off =
  let rec go lo hi =
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      if fst bounds.(mid) <= off then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length bounds)

let run ?(options = default_options) ?(obs = E9_obs.Obs.null)
    ?(fault = Fault.none) ?jobs ?jitter ?plan ?disasm_from ?frontend input
    ~select ~template =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let input_size = Elf_file.serialized_size input in
  let output = Elf_file.copy input in
  (* Stub-mode pre-flight (satellite of DESIGN.md §11): the collision
     between the loader's home and an existing segment must be detected
     before a single byte is patched, so a refused input yields a typed
     error and an untouched output — never a half-rewritten binary. *)
  if options.loader = Stub then begin
    match Elf_file.segment_at output Loader_stub.home with
    | Some (s : Elf_file.segment) ->
        error
          "Rewriter: loader home 0x%x collides with a segment at 0x%x \
           (+0x%x)"
          Loader_stub.home s.Elf_file.vaddr s.Elf_file.memsz
    | None -> ()
  end;
  let disassemble =
    match frontend with
    | Some f -> f
    | None -> fun elf -> Frontend.disassemble ?from:disasm_from ~jobs ~fault elf
  in
  (* Plan capture/replay requires the standard linear sweep and a quiet
     fault record: an injected decode cut or alloc refusal is run-local
     state that must never leak into (or out of) a persistent plan.
     Chunk {e geometry} stays on regardless — output bytes are a function
     of [options] and the input alone, with or without a store. *)
  let plan_cfg =
    match (plan, options.chunking) with
    | (Some _ as p), Some _ when frontend = None && Fault.is_none fault -> p
    | _ -> None
  in
  let decode () = E9_obs.Obs.span obs "decode" (fun () -> disassemble output) in
  (* Geometry without a plan store: the decoded sites bucketed into the
     chunk bounds, each bucket in address order. *)
  let unplanned gb (text : Frontend.text) sl =
    let n = Array.length gb in
    let buckets = Array.make n [] in
    List.iter
      (fun (s : Frontend.site) ->
        let k = chunk_of gb (s.addr - text.Frontend.base) in
        buckets.(k) <- s :: buckets.(k))
      sl;
    { g_bounds = gb;
      g_sites = Array.map List.rev buckets;
      g_entries = Array.make n 0;
      g_exits = Array.make n 0;
      g_keys = Array.make n "";
      g_found = Array.make n None;
      g_decode_replayed = Array.make n false }
  in
  let text, g, pristine =
    match options.chunking with
    | None ->
        let text, sl = decode () in
        let gb =
          if text.Frontend.size = 0 then [||]
          else [| (0, text.Frontend.size) |]
        in
        (text, unplanned gb text sl, Bytes.empty)
    | Some params -> (
        let text =
          match Frontend.find_text output with
          | Some t -> t
          | None ->
              (* Raise the frontend's canonical error. *)
              ignore (disassemble output);
              assert false
        in
        let pristine =
          Buf.sub output.Elf_file.data ~pos:text.Frontend.offset
            ~len:text.Frontend.size
        in
        let gb =
          Array.of_list
            (Chunker.boundaries params pristine ~pos:0 ~len:text.Frontend.size)
        in
        match plan_cfg with
        | None ->
            (* Fault injection, a substituted frontend or no store: decode
               the standard way and bucket sites into the chunk bounds.
               Decode is pure, so the buckets equal the planned sweep's
               whenever both run. *)
            let _t, sl = decode () in
            (text, unplanned gb text sl, pristine)
        | Some cfg ->
            let seg_sig =
              String.concat ";"
                (List.map
                   (fun (s : Elf_file.segment) ->
                     Printf.sprintf "%s:%x+%x"
                       (match s.Elf_file.ptype with
                       | Elf_file.Load -> "L"
                       | Elf_file.Note -> "N"
                       | Elf_file.Other t -> string_of_int t)
                       s.Elf_file.vaddr s.Elf_file.memsz)
                   output.Elf_file.segments)
            in
            let env_base =
              Printf.sprintf "%s|text=%x+%x|segs=%s|from=%s"
                (options_signature options) text.Frontend.base
                text.Frontend.size seg_sig
                (match disasm_from with
                | None -> "-"
                | Some a -> Printf.sprintf "%x" a)
            in
            let keys =
              Array.map
                (fun (lo, sz) ->
                  let hash = E9_bits.Fnv.hex pristine ~pos:lo ~len:sz in
                  Plan.key ~hash ~addr:(text.Frontend.base + lo) ~len:sz
                    ~env:(env_base ^ "|spec=" ^ cfg.Plan.spec_key ~lo ~len:sz))
                gb
            in
            let found = Array.map (Cache.find cfg.Plan.store) keys in
            (* Decode, replaying unchanged chunks' recorded site lists. The
               probe only answers when the stored plan was recorded over
               the same bytes (the key's content hash) at the same sweep
               entry — decode is a pure function of [(bytes, position)],
               so adoption is exact. *)
            let probe ~index ~entry =
              match found.(index) with
              | Some p
                when p.Plan.c_entry = entry
                     && p.Plan.c_lo = fst gb.(index)
                     && p.Plan.c_len = snd gb.(index) ->
                  Some (p.Plan.c_sites, p.Plan.c_exit)
              | _ -> None
            in
            let _t, g_sites, g_entries, g_exits, g_decode_replayed =
              E9_obs.Obs.span obs "decode" (fun () ->
                  Frontend.disassemble_planned ?from:disasm_from
                    ~bounds:(Array.to_list gb) ~probe output)
            in
            ( text,
              { g_bounds = gb;
                g_sites;
                g_entries;
                g_exits;
                g_keys = keys;
                g_found = found;
                g_decode_replayed },
              pristine ))
  in
  let sites = Array.of_list (List.concat (Array.to_list g.g_sites)) in
  let base = text.Frontend.base in
  let layout =
    Layout.create ~reserve_below_base:options.reserve_below_base
      ~block_size:(options.granularity * 4096) output
  in
  (* Keep the loader stub's landing zone trampoline-free: segments exist
     in the layout's occupancy from birth, but the stub segment is only
     appended after all tactics ran. *)
  if options.loader = Stub then
    Layout.reserve layout ~addr:Loader_stub.home ~size:Loader_stub.home_span;
  let text_buf =
    Buf.of_bytes (Buf.sub output.Elf_file.data ~pos:text.Frontend.offset ~len:text.Frontend.size)
  in
  let stats = Stats.create () in
  let patched = ref [] in
  (* Strategy S1: patch from highest to lowest address so that puns only
     ever depend on bytes that are already final. *)
  let selected =
    Array.to_list sites |> List.filter select
    |> List.sort (fun (a : Frontend.site) b -> compare b.addr a.addr)
  in
  (* Immutable byte ranges (mid-text data islands, hand-excluded pools):
     pre-locked before any tactic runs, so no patch, pun, dead-byte squat
     or eviction can write into them. Locking is range-clipped (out-of-
     range bytes are ignored), so applying the full list to every lock
     domain — per-chunk and merged — marks exactly the same bytes
     whatever the chunk count, preserving jobs-invariance. *)
  let apply_keeps locks =
    List.iter
      (fun (addr, len) -> Lock.lock_range locks ~addr ~len)
      options.keep_ranges
  in
  (* Chunk-parallel S1 (DESIGN.md §10/§12). The geometry is a function of
     the text and [options] alone — never of [jobs] — so the rewritten
     bytes are identical for every domain count: [jobs] only decides how
     many domains drain the fixed chunk tasks. A site whose tactic reach
     cannot cross its chunk's top edge is {e interior} and is patched by
     its chunk's task: every byte, lock and dead mark it can touch lies
     inside the chunk, and its trampoline comes from the chunk's private
     arena, which owns the stripes mapped to the chunk's own text range
     ({!Layout.shard_range}), so chunks never race. Sites within
     [max_reach] of an inner chunk edge, and interior sites deferred as
     stripe-starved, are patched by a serial fixup pass over the merged
     state. A chunk spanning the whole text has an unstriped arena,
     defers nothing and leaves no boundary sites: the paper's one serial
     S1 pass. *)
  let nchunks = Array.length g.g_bounds in
  let chunk_lo k = base + fst g.g_bounds.(k) in
  let chunk_top k = chunk_lo k + snd g.g_bounds.(k) in
  let chunk_sites = Array.map Array.of_list g.g_sites in
  let interior = Array.make nchunks [] in
  let boundary = ref [] in
  List.iter
    (fun (s : Frontend.site) ->
      let k = chunk_of g.g_bounds (s.addr - base) in
      if k = nchunks - 1 || s.addr + Tactics.max_reach <= chunk_top k then
        interior.(k) <- s :: interior.(k)
      else boundary := s :: !boundary)
    (List.rev selected);
  (* [interior.(k)] and [boundary] are in descending address order. *)
  (* Plan validation, against the live decode and the live selection: a
     stored plan replays only if its recorded site list matches the
     chunk's (guaranteed when the decode itself replayed) and its
     per-site plans cover exactly the live interior selected sites.
     Anything else — an edited chunk, a shifted seam, a changed spec the
     caller's key missed — falls back to live search. *)
  let validated =
    Array.init nchunks (fun k ->
        match g.g_found.(k) with
        | Some p
          when (g.g_decode_replayed.(k)
               || List.equal site_eq p.Plan.c_sites g.g_sites.(k))
               && List.compare_lengths p.Plan.c_plans interior.(k) = 0
               && List.for_all2
                    (fun (sp : Plan.site_plan) (s : Frontend.site) ->
                      sp.Plan.s_addr = s.Frontend.addr)
                    p.Plan.c_plans interior.(k) ->
            Some p
        | _ -> None)
  in
  let capture = plan_cfg <> None in
  let plan_hits = ref 0 and plan_misses = ref 0 and plan_conflicts = ref 0 in
  let tramps, traps, locked_bytes, steals, setup_s, deferred_count =
    E9_obs.Obs.span obs "tactic_search" (fun () ->
        (* Work-stealing execution (DESIGN.md §12): the chunk list and
           every chunk's work are functions of the text alone; [domains]
           only sets how many workers drain them. Capped at the machine's
           core count — oversubscribed domains cost minor-GC barriers
           without buying parallelism. An idle worker steals whole
           chunks, and chunk [k]'s stripe ownership travels with [k], not
           with the worker, so a stolen chunk allocates from exactly the
           stripes it would have owned unstolen. *)
        let domains = min jobs (Domain.recommended_domain_count ()) in
        let arena_of k =
          let lo, sz = g.g_bounds.(k) in
          Layout.shard_range layout ~lo ~hi:(lo + sz) ~total:text.Frontend.size
        in
        let live_search k ~sfault ~conflict ~t0 =
          let lo = chunk_lo k and top = chunk_top k in
          let arena = arena_of k in
          let locks = Lock.create ~base:lo ~len:(top - lo) in
          apply_keeps locks;
          let dead = Lock.create ~base:lo ~len:(top - lo) in
          let sobs = E9_obs.Obs.fork obs in
          let ctx =
            Tactics.create_ctx ~obs:sobs ~fault:sfault ~locks ~dead
              ~text:text_buf ~text_base:base ~layout:arena
              ~sites:chunk_sites.(k) ~options:options.tactics ()
          in
          let ssetup = Unix.gettimeofday () -. t0 in
          let sstats = Stats.create () in
          let spatched = ref [] in
          let sdeferred = ref [] in
          let splans = ref [] in
          List.iter
            (fun site ->
              let tr0 = Tactics.trampolines_rev ctx in
              let tp0 = Tactics.traps_rev ctx in
              let res = Tactics.patch_deferrable ctx site (template site) in
              (match res with
              | `Patched tactic ->
                  Stats.record sstats tactic;
                  spatched := (site.Frontend.addr, tactic) :: !spatched
              | `Deferred -> sdeferred := site :: !sdeferred
              | `Failed -> Stats.record_failure sstats);
              if capture then begin
                let st = fresh_prefix (Tactics.trampolines_rev ctx) tr0 [] in
                let sp =
                  { Plan.s_addr = site.Frontend.addr;
                    s_outcome =
                      (match res with
                      | `Patched t -> Plan.Applied t
                      | `Deferred -> Plan.Deferred
                      | `Failed -> Plan.Failed);
                    s_tramps = st;
                    s_traps = fresh_prefix (Tactics.traps_rev ctx) tp0 [];
                    s_class = placement_class ~site_addr:site.Frontend.addr st }
                in
                splans := sp :: !splans
              end)
            interior.(k);
          { o_arena = arena;
            o_locks = locks;
            o_dead = dead;
            o_obs = sobs;
            o_fault = sfault;
            o_stats = sstats;
            o_patched = !spatched;
            o_tramps = Tactics.trampolines ctx;
            o_traps = Tactics.trap_entries ctx;
            o_deferred = List.rev !sdeferred;
            o_splans = List.rev !splans;
            o_replayed = false;
            o_conflict = conflict;
            o_setup = ssetup }
        in
        (* Replay a validated plan into a fresh arena: recorded placements
           land via [alloc_at] (full base-occupancy and stripe-ownership
           checks), recorded text edits, locks, dead marks and verdicts
           are applied verbatim. Any placement refusal abandons the
           private arena and falls back to live search — the conflict
           path (DESIGN.md §14). *)
        let replay k (p : Plan.chunk) ~sfault ~t0 =
          let lo = chunk_lo k and top = chunk_top k in
          let arena = arena_of k in
          let sobs = E9_obs.Obs.fork obs in
          E9_obs.Obs.span sobs "plan_replay" (fun () ->
              let placed =
                List.for_all
                  (fun (sp : Plan.site_plan) ->
                    List.for_all
                      (fun (a, code) ->
                        Layout.alloc_at arena ~addr:a ~size:(Bytes.length code))
                      sp.Plan.s_tramps)
                  p.Plan.c_plans
              in
              if not placed then None
              else begin
                let locks = Lock.create ~base:lo ~len:(top - lo) in
                let dead = Lock.create ~base:lo ~len:(top - lo) in
                List.iter
                  (fun (a, l) -> Lock.lock_range locks ~addr:a ~len:l)
                  p.Plan.c_locks;
                List.iter
                  (fun (a, l) -> Lock.lock_range dead ~addr:a ~len:l)
                  p.Plan.c_dead;
                Plan.apply_diff text_buf ~lo:(lo - base) p.Plan.c_diff;
                let sstats = Stats.create () in
                let spatched = ref [] in
                let sdeferred = ref [] in
                List.iter2
                  (fun (sp : Plan.site_plan) (site : Frontend.site) ->
                    match sp.Plan.s_outcome with
                    | Plan.Applied tactic ->
                        Stats.record sstats tactic;
                        spatched := (site.Frontend.addr, tactic) :: !spatched
                    | Plan.Deferred -> sdeferred := site :: !sdeferred
                    | Plan.Failed -> Stats.record_failure sstats)
                  p.Plan.c_plans interior.(k);
                Some
                  { o_arena = arena;
                    o_locks = locks;
                    o_dead = dead;
                    o_obs = sobs;
                    o_fault = sfault;
                    o_stats = sstats;
                    o_patched = !spatched;
                    o_tramps =
                      List.concat_map
                        (fun (sp : Plan.site_plan) -> sp.Plan.s_tramps)
                        p.Plan.c_plans;
                    o_traps =
                      List.concat_map
                        (fun (sp : Plan.site_plan) -> sp.Plan.s_traps)
                        p.Plan.c_plans;
                    o_deferred = List.rev !sdeferred;
                    o_splans = [];
                    o_replayed = true;
                    o_conflict = false;
                    o_setup = Unix.gettimeofday () -. t0 }
              end)
        in
        let chunk_results, steal_report =
          try
            E9_bits.Pool.map_stealing ~domains ?jitter
              (fun k ->
                (* Forked fault record per chunk: occurrence counting is
                   then a function of the chunk's own query sequence,
                   never of domain interleaving, preserving output
                   identity across jobs values (DESIGN.md §10). An indexed
                   [Shard] rule simulates a domain dying mid-map; Pool
                   contains it per-slot and this layer types it. *)
                let sfault = Fault.fork fault in
                if Fault.fires_at sfault Fault.Shard ~key:k then
                  raise
                    (Fault.Injected
                       (Printf.sprintf "shard %d raised mid-Pool.map" k));
                let t0 = Unix.gettimeofday () in
                match validated.(k) with
                | Some p -> (
                    match replay k p ~sfault ~t0 with
                    | Some out -> out
                    | None -> live_search k ~sfault ~conflict:true ~t0)
                | None -> live_search k ~sfault ~conflict:false ~t0)
              (List.init nchunks (fun i -> nchunks - 1 - i))
          with Fault.Injected m -> error "injected fault: %s" m
        in
        (* Canonical merge, chunks high-to-low (the fixed task order —
           Pool.map_stealing returns results in input order whatever the
           completion order, so the merge is identical for every
           [jobs]). *)
        List.iter
          (fun o ->
            Layout.absorb ~dst:layout o.o_arena;
            E9_obs.Obs.merge_into ~dst:obs o.o_obs;
            Fault.merge_into ~dst:fault o.o_fault;
            Stats.merge_into ~dst:stats o.o_stats;
            patched := List.rev_append o.o_patched !patched;
            if o.o_replayed then incr plan_hits
            else if o.o_conflict then incr plan_conflicts
            else if capture then incr plan_misses)
          chunk_results;
        (* Capture: store a fresh plan for every chunk that ran a live
           search. Must happen before the fixup pass below — seam fixups
           may write across chunk boundaries, and those bytes belong to
           the live fixup of {e every} run, warm or cold. *)
        (match plan_cfg with
        | Some cfg ->
            let current = Buf.raw text_buf in
            List.iteri
              (fun i o ->
                if not o.o_replayed then begin
                  (* Task order is descending: task [i] handled chunk
                     [nchunks - 1 - i]. *)
                  let k = nchunks - 1 - i in
                  let clo, csz = g.g_bounds.(k) in
                  Cache.add cfg.Plan.store g.g_keys.(k)
                    { Plan.c_lo = clo;
                      c_len = csz;
                      c_entry = g.g_entries.(k);
                      c_exit = g.g_exits.(k);
                      c_sites = g.g_sites.(k);
                      c_plans = o.o_splans;
                      c_diff = Plan.diff ~pristine ~current ~lo:clo ~len:csz;
                      c_locks = Lock.ranges o.o_locks;
                      c_dead = Lock.ranges o.o_dead }
                end)
              chunk_results
        | None -> ());
        (* Serial fixup over the merged state: boundary sites see every
           chunk's locks, dead bytes and occupancy, and stripe-starved
           deferred sites retry their windows against the unconstrained
           merged layout, where the O(log n) query sees every stripe —
           exactly the serial algorithm, restricted to the held-back
           sites, in canonical descending address order. *)
        let deferred_all =
          List.concat_map (fun o -> o.o_deferred) chunk_results
        in
        let setup_total =
          List.fold_left (fun acc o -> acc +. o.o_setup) 0. chunk_results
        in
        let fixup_sites =
          List.merge
            (fun (a : Frontend.site) b -> compare b.addr a.addr)
            deferred_all !boundary
        in
        (* Chunk lock maps cover disjoint ranges, so without a fixup pass
           the locked-byte count is their sum and no whole-text merge is
           built — the case of every unchunked rewrite. *)
        let fixup_tramps, fixup_traps, locked_bytes =
          match fixup_sites with
          | [] ->
              ( [],
                [],
                List.fold_left
                  (fun acc o -> acc + Lock.locked_count o.o_locks)
                  0 chunk_results )
          | _ ->
              let locks_all = Lock.create ~base ~len:text.Frontend.size in
              let dead_all = Lock.create ~base ~len:text.Frontend.size in
              List.iter
                (fun o ->
                  Lock.merge_into ~dst:locks_all o.o_locks;
                  Lock.merge_into ~dst:dead_all o.o_dead)
                chunk_results;
              let fixup_ctx =
                Tactics.create_ctx ~obs ~fault ~locks:locks_all ~dead:dead_all
                  ~text:text_buf ~text_base:base ~layout ~sites
                  ~options:options.tactics ()
              in
              List.iter
                (fun site ->
                  match Tactics.patch fixup_ctx site (template site) with
                  | Some tactic ->
                      Stats.record stats tactic;
                      patched := (site.Frontend.addr, tactic) :: !patched
                  | None -> Stats.record_failure stats)
                fixup_sites;
              ( Tactics.trampolines fixup_ctx,
                Tactics.trap_entries fixup_ctx,
                Lock.locked_count locks_all )
        in
        ( List.concat_map (fun o -> o.o_tramps) chunk_results @ fixup_tramps,
          List.concat_map (fun o -> o.o_traps) chunk_results @ fixup_traps,
          locked_bytes,
          steal_report.E9_bits.Pool.steals,
          setup_total,
          List.length deferred_all ))
  in
  let occ = Layout.occupancy layout in
  if E9_obs.Obs.enabled obs then begin
    E9_obs.Obs.gauge obs ~name:"layout.occupied_intervals"
      ~value:occ.Layout.occupied_intervals;
    E9_obs.Obs.gauge obs ~name:"layout.trampoline_extents"
      ~value:occ.Layout.trampoline_extents;
    E9_obs.Obs.gauge obs ~name:"layout.trampoline_bytes"
      ~value:occ.Layout.trampoline_bytes;
    E9_obs.Obs.gauge obs ~name:"text.locked_bytes" ~value:locked_bytes;
    E9_obs.Obs.gauge obs ~name:"rewrite.shards" ~value:nchunks;
    (* Next-fit allocator cursor effectiveness; shard-arena counters were
       folded into [layout] by [Layout.absorb]. *)
    E9_obs.Obs.counter obs ~name:"layout.cursor_hits"
      ~value:(Layout.cursor_hits layout);
    E9_obs.Obs.counter obs ~name:"layout.cursor_misses"
      ~value:(Layout.cursor_misses layout);
    (* Parallel-search honesty counters (DESIGN.md §12): stripe rotations
       and deferrals show how the conflict storm was absorbed; steals show
       whether the scheduler actually balanced anything. *)
    E9_obs.Obs.counter obs ~name:"layout.stripe_rotations"
      ~value:(Layout.stripe_rotations layout);
    E9_obs.Obs.counter obs ~name:"pool.steals" ~value:steals;
    E9_obs.Obs.counter obs ~name:"rewrite.deferred_sites"
      ~value:deferred_count;
    (* Plan-cache effectiveness (DESIGN.md §14): hits replayed, misses
       searched live, conflicts fell back after a placement refusal. *)
    if plan_cfg <> None then begin
      E9_obs.Obs.counter obs ~name:"plan_hit" ~value:!plan_hits;
      E9_obs.Obs.counter obs ~name:"plan_miss" ~value:!plan_misses;
      E9_obs.Obs.counter obs ~name:"plan_conflict" ~value:!plan_conflicts
    end;
    Array.iter
      (fun s ->
        let n = Fault.fired fault s in
        if n > 0 then
          E9_obs.Obs.fault obs ~site:(Fault.site_name s) ~fires:n)
      Fault.sites
  end;
  (* Blit the patched text back — strictly in place. *)
  Buf.blit_in output.Elf_file.data ~pos:text.Frontend.offset (Buf.contents text_buf);
  (* Physical page grouping over the emitted trampolines, then append. *)
  let grouped =
    E9_obs.Obs.span obs "layout" (fun () ->
        Pagegroup.group ~granularity:options.granularity
          ~enabled:options.grouping tramps)
  in
  if Bytes.length grouped.Pagegroup.blob > 0 then begin
    let blob_off =
      Elf_file.add_section output ~name:".e9patch.tramp" ~addr:0 ~sh_type:1
        ~sh_flags:0 ~content:grouped.Pagegroup.blob
    in
    let mappings =
      List.map
        (fun (m : Loadmap.mapping) ->
          { m with Loadmap.file_off = m.Loadmap.file_off + blob_off })
        grouped.Pagegroup.mappings
    in
    match options.loader with
    | Table ->
        (* Host-side loading: the emulator's loader interprets the table. *)
        ignore
          (Elf_file.add_section output ~name:Elf_file.mmap_section_name
             ~addr:0 ~sh_type:1 ~sh_flags:0
             ~content:(Loadmap.encode_mappings mappings))
    | Stub ->
        (* The paper's mechanism: an injected loader replaces the entry
           point and performs the mmaps itself (§5.1). *)
        let stub =
          Loader_stub.emit ~vaddr:Loader_stub.home ~mappings
            ~real_entry:output.Elf_file.entry
        in
        (* Defensive re-check: the pre-flight above already refused
           colliding inputs before any mutation; a hit here would mean
           the rewrite itself grew a segment into the loader home. *)
        (match Elf_file.segment_at output Loader_stub.home with
        | Some _ ->
            error "Rewriter: loader home 0x%x collides with a segment \
                   created during rewriting"
              Loader_stub.home
        | None -> ());
        ignore
          (Elf_file.add_segment output
             { Elf_file.ptype = Elf_file.Load;
               prot = Elf_file.prot_rx;
               vaddr = Loader_stub.home;
               offset = 0;
               filesz = 0;
               memsz = Bytes.length stub.Loader_stub.content;
               align = 4096 }
             ~content:stub.Loader_stub.content);
        output.Elf_file.entry <- stub.Loader_stub.entry
  end;
  (match traps with
  | [] -> ()
  | traps ->
      ignore
        (Elf_file.add_section output ~name:Elf_file.trap_section_name ~addr:0
           ~sh_type:1 ~sh_flags:0 ~content:(Loadmap.encode_traps traps)));
  let output_size =
    E9_obs.Obs.span obs "serialize" (fun () ->
        Elf_file.serialized_size output)
  in
  Logs.info (fun m ->
      m "rewrote %s: %a; %d -> %d bytes; %d trampolines in %d mappings"
        (match Frontend.find_text output with
        | Some t -> Printf.sprintf "text@0x%x" t.Frontend.base
        | None -> "?")
        (fun ppf -> Stats.pp ppf) stats input_size output_size
        (List.length tramps)
        (List.length grouped.Pagegroup.mappings));
  { output;
    stats;
    input_size;
    output_size;
    trampoline_bytes =
      List.fold_left (fun acc (_, b) -> acc + Bytes.length b) 0 tramps;
    virtual_blocks = grouped.Pagegroup.virtual_blocks;
    physical_blocks = grouped.Pagegroup.physical_blocks;
    mappings = List.length grouped.Pagegroup.mappings;
    patched_sites = List.sort (fun (a, _) (b, _) -> compare b a) !patched;
    shards = nchunks;
    steals;
    setup_s;
    occupancy = occ;
    plan_hits = !plan_hits;
    plan_misses = !plan_misses;
    plan_conflicts = !plan_conflicts }

let size_pct r =
  if r.input_size = 0 then 0.0
  else 100.0 *. float_of_int r.output_size /. float_of_int r.input_size
