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
}

let default_options =
  { tactics = Tactics.default_options;
    granularity = 1;
    grouping = true;
    reserve_below_base = false;
    loader = Table;
    keep_ranges = [] }

(* A stable, injective textual encoding of every options field. Lives
   next to the type so a new field cannot be forgotten without the
   record pattern below failing to compile. The RPC service hashes this
   into its content-addressed cache key (DESIGN.md §13): two options
   values rewrite identically iff their signatures are equal. *)
let options_signature o =
  let { tactics; granularity; grouping; reserve_below_base; loader;
        keep_ranges } = o in
  let { Tactics.enable_base; enable_t1; enable_t2; enable_t3; b0_fallback;
        t2_joint; t2_cap; t3_cap } = tactics in
  Printf.sprintf
    "base=%b;t1=%b;t2=%b;t3=%b;b0=%b;joint=%b;t2cap=%d;t3cap=%d;M=%d;\
     grouping=%b;shared=%b;loader=%s;keep=%s"
    enable_base enable_t1 enable_t2 enable_t3 b0_fallback t2_joint t2_cap
    t3_cap granularity grouping reserve_below_base
    (match loader with Table -> "table" | Stub -> "stub")
    (String.concat ","
       (List.map (fun (a, l) -> Printf.sprintf "%x+%x" a l) keep_ranges))

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
  setup_s : float;
  occupancy : Layout.occupancy;
}

let default_jobs () =
  match Sys.getenv_opt "E9_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> 1)
  | None -> 1

(* A trampoline the encoder cannot build (a rel32 out of range, an
   operand outside the encoder's subset, a template that does not fit the
   instruction) aborts the rewrite with a typed error naming the site. *)
let patch_site ctx (site : Frontend.site) template =
  try Tactics.patch ctx site template
  with Invalid_argument m ->
    error "site 0x%x (%s): %s" site.addr (E9_x86.Insn.to_string site.insn) m

let run ?(options = default_options) ?(obs = E9_obs.Obs.null)
    ?(fault = Fault.none) ?jobs ?disasm_from ?frontend input ~select
    ~template =
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
  let text, site_list =
    E9_obs.Obs.span obs "decode" (fun () ->
        match frontend with
        | Some f -> f output
        | None -> Frontend.disassemble ?from:disasm_from ~jobs ~fault output)
  in
  let sites = Array.of_list site_list in
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
  let ctx, setup_s =
    E9_obs.Obs.span obs "tactic_search" (fun () ->
        (* An injected [Shard] fault models the search dying mid-run; it
           surfaces as a typed error before any byte is patched. *)
        if Fault.fires_at fault Fault.Shard ~key:0 then
          error "injected fault: shard 0 raised mid-search";
        let t0 = Unix.gettimeofday () in
        let ctx =
          Tactics.create_ctx ~obs ~fault ~text:text_buf ~text_base:base
            ~layout ~sites ~options:options.tactics ()
        in
        (* Immutable byte ranges (mid-text data islands, hand-excluded
           pools): pre-locked before any tactic runs, so no patch, pun,
           dead-byte squat or eviction can write into them. *)
        List.iter
          (fun (addr, len) -> Lock.lock_range (Tactics.locks ctx) ~addr ~len)
          options.keep_ranges;
        let setup_s = Unix.gettimeofday () -. t0 in
        List.iter
          (fun (site : Frontend.site) ->
            match patch_site ctx site (template site) with
            | Some tactic ->
                Stats.record stats tactic;
                patched := (site.addr, tactic) :: !patched
            | None -> Stats.record_failure stats)
          selected;
        (ctx, setup_s))
  in
  let tramps = Tactics.trampolines ctx and traps = Tactics.trap_entries ctx in
  let occ = Layout.occupancy layout in
  if E9_obs.Obs.enabled obs then begin
    E9_obs.Obs.gauge obs ~name:"layout.occupied_intervals"
      ~value:occ.Layout.occupied_intervals;
    E9_obs.Obs.gauge obs ~name:"layout.trampoline_extents"
      ~value:occ.Layout.trampoline_extents;
    E9_obs.Obs.gauge obs ~name:"layout.trampoline_bytes"
      ~value:occ.Layout.trampoline_bytes;
    E9_obs.Obs.gauge obs ~name:"text.locked_bytes"
      ~value:(Lock.locked_count (Tactics.locks ctx));
    (* Next-fit allocator cursor effectiveness. *)
    E9_obs.Obs.counter obs ~name:"layout.cursor_hits"
      ~value:(Layout.cursor_hits layout);
    E9_obs.Obs.counter obs ~name:"layout.cursor_misses"
      ~value:(Layout.cursor_misses layout);
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
    shards = 1;
    setup_s;
    occupancy = occ }

let size_pct r =
  if r.input_size = 0 then 0.0
  else 100.0 *. float_of_int r.output_size /. float_of_int r.input_size
