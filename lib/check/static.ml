module Buf = E9_bits.Buf
module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Decode = E9_x86.Decode

type byte_class =
  | Patch_jump
  | Pun_overhang
  | T2_evictee
  | T3_victim
  | Short_jump
  | Trap

let class_name = function
  | Patch_jump -> "patch-jump"
  | Pun_overhang -> "pun-overhang"
  | T2_evictee -> "t2-evictee"
  | T3_victim -> "t3-victim"
  | Short_jump -> "short-jump"
  | Trap -> "trap"

type report = {
  changed_bytes : int;
  diversions : int;
  short_jumps : int;
  traps : int;
  trampolines_checked : int;
  classified : (int * byte_class) list;
}

type error = { addr : int; reason : string }

let pp_report ppf r =
  let count c =
    List.length (List.filter (fun (_, c') -> c' = c) r.classified)
  in
  Format.fprintf ppf
    "%d changed bytes (%d patch-jump, %d overhang, %d t2-evictee, %d \
     t3-victim, %d short, %d trap); %d diversions, %d trampolines verified"
    r.changed_bytes (count Patch_jump) (count Pun_overhang) (count T2_evictee)
    (count T3_victim) (count Short_jump) (count Trap) r.diversions
    r.trampolines_checked

let pp_error ppf e =
  Format.fprintf ppf "verification failed at 0x%x: %s" e.addr e.reason

exception Fail of error

let fail addr fmt =
  Printf.ksprintf (fun s -> raise (Fail { addr; reason = s })) fmt

(* The T1 padding prefixes (semantically inert on a near jump); mirrors
   Tactics.pad_prefixes but is derived here independently — the verifier
   accepts exactly the prefixes that do not change [jmp rel32]. *)
let pad_set = [ 0x48; 0x26; 0x2e; 0x36; 0x3e; 0x64; 0x65 ]

(* A prefixed jump is at most 7 distinct prefixes + cycle slack; instruction
   encodings in the subset never exceed 15 bytes + padding, so a diversion
   covering byte [a] starts no earlier than [a - 18]. *)
let max_scan_back = 18
let max_tramp_insns = 4096
let page = 4096

type jmp_div = { start : int; jlen : int; target : int }

let e9_sections =
  [ ".e9patch.tramp"; Elf_file.mmap_section_name; Elf_file.trap_section_name ]

let verify ?disasm_from ?(holes = []) ~original rewritten =
  try
    (* ---- structural prelude ------------------------------------- *)
    let otext =
      match Frontend.find_text original with
      | Some t -> t
      | None -> fail 0 "original has no text section or executable segment"
    in
    let rtext =
      match Frontend.find_text rewritten with
      | Some t -> t
      | None -> fail 0 "rewritten binary has no text"
    in
    if
      rtext.Frontend.base <> otext.Frontend.base
      || rtext.Frontend.offset <> otext.Frontend.offset
      || rtext.Frontend.size <> otext.Frontend.size
    then
      fail rtext.Frontend.base
        "text geometry changed (base/offset/size must be preserved in place)";
    List.iter
      (fun name ->
        if Elf_file.find_section original name <> None then
          fail 0 "original already contains rewriter section %s" name)
      e9_sections;
    let od = Buf.length original.Elf_file.data in
    let rd = Buf.length rewritten.Elf_file.data in
    if rd < od then fail 0 "rewritten image is smaller than the original";
    (* Every original byte outside the text must be preserved. *)
    let obytes = Buf.sub original.Elf_file.data ~pos:0 ~len:od in
    let rbytes = Buf.sub rewritten.Elf_file.data ~pos:0 ~len:od in
    let t_lo = otext.Frontend.offset
    and t_hi = otext.Frontend.offset + otext.Frontend.size in
    (* ELF header and program-header-table bytes are regenerated at
       serialization time and legitimately differ once content is appended:
       e_shoff always moves; e_entry changes in stub mode; e_phnum/e_shnum/
       e_shstrndx and the appended phdr slots grow with the extra
       segments/sections. Each of those is validated from the parsed
       structures below, so the byte ranges are exempt here — everything
       else must match. *)
    let ehdr_size = 64 and phent_size = 56 in
    let n_oseg = List.length original.Elf_file.segments
    and n_rseg = List.length rewritten.Elf_file.segments in
    let header_managed i =
      (i >= 40 && i < 48)
      || (i >= 24 && i < 32
         && rewritten.Elf_file.entry <> original.Elf_file.entry)
      || (i >= 56 && i < 58 && n_rseg <> n_oseg)
      || (i >= 60 && i < 64
         && List.length rewritten.Elf_file.sections
            <> List.length original.Elf_file.sections)
      || (i >= ehdr_size + (n_oseg * phent_size)
         && i < ehdr_size + (n_rseg * phent_size))
    in
    for i = 0 to od - 1 do
      if
        (i < t_lo || i >= t_hi)
        && (not (header_managed i))
        && Bytes.get obytes i <> Bytes.get rbytes i
      then fail i "non-text byte at file offset %d changed" i
    done;
    (* Original segments must survive verbatim; the only permitted extra is
       the injected loader stub. *)
    let rec extra_segments os rs =
      match (os, rs) with
      | [], extras -> extras
      | o :: os', r :: rs' when o = r -> extra_segments os' rs'
      | (o : Elf_file.segment) :: _, _ ->
          fail o.Elf_file.vaddr "an original program header was altered"
    in
    let extra_segs =
      extra_segments original.Elf_file.segments rewritten.Elf_file.segments
    in
    let rec extra_sections os rs =
      match (os, rs) with
      | [], extras -> extras
      | o :: os', r :: rs' when o = r -> extra_sections os' rs'
      | (o : Elf_file.section) :: _, _ ->
          fail o.Elf_file.addr "an original section header was altered"
    in
    List.iter
      (fun (s : Elf_file.section) ->
        if not (List.mem s.Elf_file.name e9_sections) then
          fail s.Elf_file.addr "unexpected appended section %s" s.Elf_file.name)
      (extra_sections original.Elf_file.sections rewritten.Elf_file.sections);
    (* ---- mapping recovery (table or stub loader) ----------------- *)
    let stub_mode = rewritten.Elf_file.entry <> original.Elf_file.entry in
    let mappings =
      if not stub_mode then begin
        (match extra_segs with
        | [] -> ()
        | s :: _ ->
            fail s.Elf_file.vaddr
              "extra program header without a loader-stub entry change");
        match Elf_file.find_section rewritten Elf_file.mmap_section_name with
        | None -> []
        | Some sec ->
            Loadmap.decode_mappings (Elf_file.section_bytes rewritten sec)
      end
      else begin
        match extra_segs with
        | [ seg ]
          when seg.Elf_file.ptype = Elf_file.Load
               && rewritten.Elf_file.entry >= seg.Elf_file.vaddr
               && rewritten.Elf_file.entry
                  < seg.Elf_file.vaddr + seg.Elf_file.filesz ->
            (* Recover the mapping table the way the stub itself finds it:
               decode the stub code from the new entry and read the table
               bounds out of its movabs immediates. *)
            let content =
              Buf.sub rewritten.Elf_file.data ~pos:seg.Elf_file.offset
                ~len:seg.Elf_file.filesz
            in
            let imm = Hashtbl.create 8 in
            let pos = ref (rewritten.Elf_file.entry - seg.Elf_file.vaddr) in
            let steps = ref 0 in
            let finished = ref false in
            while (not !finished) && !steps < 256 do
              if !pos < 0 || !pos >= Bytes.length content then
                fail rewritten.Elf_file.entry "stub decoding ran off its segment";
              let d = Decode.decode content !pos in
              (match d.Decode.insn with
              | Insn.Movabs (r, v) ->
                  Hashtbl.replace imm (Reg.index r) (Int64.to_int v)
              | Insn.Jmp_ind (Insn.Reg r) -> (
                  match Hashtbl.find_opt imm (Reg.index r) with
                  | Some real when real = original.Elf_file.entry ->
                      finished := true
                  | _ ->
                      fail rewritten.Elf_file.entry
                        "stub terminal jump does not reach the original entry")
              | Insn.Jmp_ind (Insn.Mem m) when m.Insn.rip_rel ->
                  (* jmp through a rip-relative entry slot *)
                  let slot = !pos + d.Decode.len + m.Insn.disp in
                  if slot < 0 || slot + 8 > Bytes.length content then
                    fail rewritten.Elf_file.entry
                      "stub entry slot outside its segment";
                  let real =
                    Int64.to_int (Bytes.get_int64_le content slot)
                  in
                  if real = original.Elf_file.entry then finished := true
                  else
                    fail rewritten.Elf_file.entry
                      "stub terminal jump does not reach the original entry"
              | Insn.Int3 | Insn.Ud2 | Insn.Unknown _ ->
                  fail
                    (seg.Elf_file.vaddr + !pos)
                    "undecodable instruction in loader stub"
              | _ -> ());
              pos := !pos + d.Decode.len;
              incr steps
            done;
            if not !finished then
              fail rewritten.Elf_file.entry
                "loader stub never jumps to the original entry";
            let t_addr =
              match Hashtbl.find_opt imm (Reg.index Reg.R14) with
              | Some v -> v
              | None -> fail rewritten.Elf_file.entry "stub has no table base"
            in
            let t_end =
              match Hashtbl.find_opt imm (Reg.index Reg.R15) with
              | Some v -> v
              | None -> fail rewritten.Elf_file.entry "stub has no table end"
            in
            if
              t_addr < seg.Elf_file.vaddr
              || t_end > seg.Elf_file.vaddr + seg.Elf_file.filesz
              || t_end < t_addr
              || (t_end - t_addr) mod 32 <> 0
            then fail t_addr "stub mapping table out of bounds";
            Loadmap.decode_mappings
              (Bytes.sub content (t_addr - seg.Elf_file.vaddr) (t_end - t_addr))
        | _ ->
            fail rewritten.Elf_file.entry
              "entry changed but no valid loader-stub segment was added"
      end
    in
    (* ---- mapping sanity ------------------------------------------ *)
    let sorted =
      List.sort
        (fun (a : Loadmap.mapping) b -> compare a.Loadmap.vaddr b.Loadmap.vaddr)
        mappings
    in
    let rec disjoint = function
      | (a : Loadmap.mapping) :: (b :: _ as rest) ->
          if a.Loadmap.vaddr + a.Loadmap.len > b.Loadmap.vaddr then
            fail b.Loadmap.vaddr "trampoline mappings overlap";
          disjoint rest
      | _ -> ()
    in
    disjoint sorted;
    List.iter
      (fun (m : Loadmap.mapping) ->
        if m.Loadmap.len <= 0 then fail m.Loadmap.vaddr "empty mapping";
        if m.Loadmap.vaddr < 0x10000 then
          fail m.Loadmap.vaddr "mapping inside the NULL guard";
        if m.Loadmap.vaddr + m.Loadmap.len > 1 lsl 47 then
          fail m.Loadmap.vaddr "mapping beyond the canonical address limit";
        if m.Loadmap.file_off < od || m.Loadmap.file_off + m.Loadmap.len > rd
        then
          fail m.Loadmap.vaddr
            "mapping references bytes outside the appended region";
        List.iter
          (fun (seg : Elf_file.segment) ->
            if seg.Elf_file.ptype = Elf_file.Load then begin
              let lo = seg.Elf_file.vaddr / page * page in
              let hi =
                (seg.Elf_file.vaddr + seg.Elf_file.memsz + page - 1)
                / page * page
              in
              if m.Loadmap.vaddr < hi && m.Loadmap.vaddr + m.Loadmap.len > lo
              then
                fail m.Loadmap.vaddr
                  "mapping collides with the PT_LOAD segment at 0x%x"
                  seg.Elf_file.vaddr
            end)
          rewritten.Elf_file.segments)
      mappings;
    let marr = Array.of_list sorted in
    let mapping_at va =
      let rec go lo hi =
        if lo > hi then None
        else
          let mid = (lo + hi) / 2 in
          let m = marr.(mid) in
          if va < m.Loadmap.vaddr then go lo (mid - 1)
          else if va >= m.Loadmap.vaddr + m.Loadmap.len then go (mid + 1) hi
          else Some m
      in
      go 0 (Array.length marr - 1)
    in
    let tramp_byte va =
      match mapping_at va with
      | Some m ->
          Some
            (Buf.get_u8 rewritten.Elf_file.data
               (m.Loadmap.file_off + (va - m.Loadmap.vaddr)))
      | None -> None
    in
    (* ---- B0 trap table ------------------------------------------- *)
    let trap_tbl = Hashtbl.create 8 in
    (match Elf_file.find_section rewritten Elf_file.trap_section_name with
    | Some sec ->
        List.iter
          (fun (t : Loadmap.trap) ->
            Hashtbl.replace trap_tbl t.Loadmap.patch_addr
              t.Loadmap.trampoline_addr)
          (Loadmap.decode_traps (Elf_file.section_bytes rewritten sec))
    | None -> ());
    (* ---- original instruction boundaries ------------------------- *)
    (* With interior data islands the plain sweep desynchronizes and the
       boundary map grows phantoms; the hole-aware sweep reproduces the
       boundary set the rewriting itself used. *)
    let _, sites = Frontend.disassemble ?from:disasm_from ~holes original in
    (* Every per-address table below is keyed by address (arrays over the
       text; hash tables for the sparse short jumps), so each lookup is
       O(1) and the whole pass stays linear in the text. *)
    let base = otext.Frontend.base in
    let text_hi = base + otext.Frontend.size in
    let in_text a = a >= base && a < text_hi in
    let bounds = Array.make otext.Frontend.size None in
    List.iter
      (fun (s : Frontend.site) ->
        if in_text s.Frontend.addr then
          bounds.(s.Frontend.addr - base) <-
            Some (s.Frontend.len, s.Frontend.insn))
      sites;
    let bound a = if in_text a then bounds.(a - base) else None in
    let is_bound a = bound a <> None in
    let disasm_lo = match disasm_from with None -> base | Some a -> a in
    let in_disasm a = a >= disasm_lo && a < text_hi in
    (* ---- text diff ----------------------------------------------- *)
    let before =
      Buf.sub original.Elf_file.data ~pos:otext.Frontend.offset
        ~len:otext.Frontend.size
    in
    let after =
      Buf.sub rewritten.Elf_file.data ~pos:otext.Frontend.offset
        ~len:otext.Frontend.size
    in
    let changed = ref [] in
    for i = otext.Frontend.size - 1 downto 0 do
      if Bytes.get before i <> Bytes.get after i then
        changed := (base + i) :: !changed
    done;
    let changed = !changed in
    let rbyte a = Char.code (Bytes.get after (a - base)) in
    let decode_after a = Decode.decode after (a - base) in
    (* Decode the rewritten bytes at [s]: a valid diversion jump is a
       (possibly pad-prefixed) [jmp rel32] whose target lands inside a
       trampoline mapping — the strong disambiguator that rules out stray
       byte patterns. *)
    let diversion_at s =
      if s < disasm_lo || s >= text_hi then None
      else
        let d = decode_after s in
        match d.Decode.insn with
        | Insn.Jmp rel
          when List.for_all (fun p -> List.mem p pad_set) d.Decode.prefixes
               && s + d.Decode.len <= text_hi ->
            let target = s + d.Decode.len + rel in
            if mapping_at target <> None then
              Some { start = s; jlen = d.Decode.len; target }
            else None
        | _ -> None
    in
    (* ---- diversion discovery ------------------------------------- *)
    let covered = Bytes.make otext.Frontend.size '\000' in
    let cover lo len = Bytes.fill covered (lo - base) len '\001' in
    (* Discovered diversions, newest first (the order the checks below
       report in), indexed by start; [longest] bounds how far below a
       byte the start of a diversion covering it can lie. *)
    let jmps = ref [] in
    let div_at = Array.make otext.Frontend.size None in
    let div a = if in_text a then div_at.(a - base) else None in
    let longest = ref 0 in
    (* T3 short jumps, newest first, indexed both ways: site -> target,
       and target -> the most recently registered site. *)
    let shorts = ref [] (* (patch site, jp target) *) in
    let short_target = Hashtbl.create 64 in
    let short_site = Hashtbl.create 64 in
    let add_short s jp =
      shorts := (s, jp) :: !shorts;
      Hashtbl.replace short_target s jp;
      Hashtbl.replace short_site jp s;
      cover s 2
    in
    let add_jmp j =
      jmps := j :: !jmps;
      div_at.(j.start - base) <- Some j;
      longest := max !longest j.jlen;
      cover j.start j.jlen
    in
    (* Pure function of the rewritten bytes: does some instruction boundary
       within rel8 range hold a short jump targeting [c]? Subsumes the
       registered-shorts list and is order-independent, which matters when
       a candidate must be disambiguated before its serving short has been
       walked. *)
    let has_serving_short c =
      let found = ref false in
      for s = max disasm_lo (c - 129) to c - 2 do
        if
          (not !found)
          && is_bound s
          && rbyte s = 0xeb
          &&
          match (decode_after s).Decode.insn with
          | Insn.Jmp_short rel -> rel >= 0 && s + 2 + rel = c
          | _ -> false
        then found := true
      done;
      !found
    in
    let try_short s =
      if s >= disasm_lo && is_bound s && rbyte s = 0xeb then
        let d = decode_after s in
        match d.Decode.insn with
        | Insn.Jmp_short rel when rel >= 0 && s + 2 + rel < text_hi -> (
            let jp = s + 2 + rel in
            match diversion_at jp with
            | Some _ ->
                add_short s jp;
                true
            | None -> false)
        | _ -> false
      else false
    in
    List.iter
      (fun a ->
        if Bytes.get covered (a - base) = '\000' then
          if not (in_disasm a) then
            fail a "changed byte outside the disassembled code region"
          else if rbyte a = 0xcc && is_bound a && Hashtbl.mem trap_tbl a then
            cover a 1
          else if try_short a || try_short (a - 1) then ()
          else begin
            (* Scan candidate starts. Overlapping decodes can alias — a pad
               prefix byte in front of a real [e9] yields a phantom jump
               with the same rel32 bytes — so prefer, in order: a start at
               an original instruction boundary (a directly patched or
               evicted site); a start some T3 short jump targets (a squat
               J_patch — checked against the rewritten bytes directly,
               because the serving short's own bytes may be punned inside
               another diversion and not walked yet); the lowest start. *)
            let cands = ref [] in
            for s = a downto max disasm_lo (a - max_scan_back) do
              match diversion_at s with
              | Some j when s + j.jlen > a -> cands := j :: !cands
              | _ -> ()
            done;
            let pick =
              match List.find_opt (fun j -> is_bound j.start) !cands with
              | Some j -> Some j
              | None -> (
                  match
                    List.find_opt (fun j -> has_serving_short j.start) !cands
                  with
                  | Some j -> Some j
                  | None -> (
                      match !cands with j :: _ -> Some j | [] -> None))
            in
            match pick with
            | Some j -> add_jmp j
            | None ->
                fail a
                  "unaccounted changed byte 0x%02x (original 0x%02x); no \
                   diversion explains it"
                  (rbyte a)
                  (Char.code (Bytes.get before (a - base)))
          end)
      changed;
    (* A short jump's target must itself be a registered diversion, even in
       the (theoretical) case where the punned jump's bytes all coincided
       with the original text and were never "changed". *)
    List.iter
      (fun (_, jp) ->
        if div jp = None then
          match diversion_at jp with
          | Some j -> add_jmp j
          | None -> fail jp "short jump targets a non-diversion")
      !shorts;
    (* Bytes serve double duty under punning: a diversion (an evictee's
       jump, or a T3 short at a later-patched site) can lie entirely inside
       an earlier diversion's extent, so the changed-byte walk above never
       reaches it — it was already "covered". Expand to a fixpoint: any
       instruction boundary strictly inside a discovered jump's extent that
       itself decodes as a diversion with at least one rewritten byte is
       registered too. A jump already scanned yields nothing new when
       scanned again (every test is a pure function of the bytes, or of
       whether a start is registered), so each round scans only the jumps
       the previous one added, newest first: the same jumps are found in
       the same order as rescanning the whole list each round. *)
    let changed_at a =
      Bytes.get before (a - base) <> Bytes.get after (a - base)
    in
    let any_changed lo len =
      let any = ref false in
      for i = lo to min (lo + len - 1) (text_hi - 1) do
        if changed_at i then any := true
      done;
      !any
    in
    let rec expand scan =
      let added = ref [] in
      List.iter
        (fun j ->
          for off = 1 to j.jlen - 1 do
            let b = j.start + off in
            if is_bound b && div b = None then
              match diversion_at b with
              | Some j' when any_changed j'.start j'.jlen ->
                  add_jmp j';
                  added := j' :: !added
              | _ -> ()
          done)
        scan;
      if !added <> [] then expand !added
    in
    expand !jmps;
    (* Likewise a T3 short jump whose two bytes were punned over by another
       diversion: find it by scanning the rel8 range back from each
       non-boundary jump that still lacks a serving short. *)
    List.iter
      (fun j ->
        if (not (is_bound j.start)) && not (Hashtbl.mem short_site j.start)
        then
          for s = max disasm_lo (j.start - 129) to j.start - 2 do
            if
              is_bound s && rbyte s = 0xeb
              && (not (Hashtbl.mem short_target s))
              &&
              match (decode_after s).Decode.insn with
              | Insn.Jmp_short rel -> s + 2 + rel = j.start
              | _ -> false
            then add_short s j.start
          done)
      !jmps;
    let jmps = !jmps and shorts = !shorts in
    (* ---- trampoline verification --------------------------------- *)
    let tramp_window va =
      Bytes.init 16 (fun i ->
          match tramp_byte (va + i) with
          | Some b -> Char.chr b
          | None -> '\xcc')
    in
    let trampolines_checked = ref 0 in
    let verify_tramp ~site_addr t =
      let site_len, insn =
        match bound site_addr with
        | Some (len, insn) -> (len, insn)
        | None -> fail site_addr "served site is not an instruction boundary"
      in
      let ret = site_addr + site_len in
      let jcc_targets = ref [] in
      let call_targets = ref [] in
      let rec step va n =
        if n > max_tramp_insns then
          fail t "trampoline has no terminal transfer within %d instructions"
            max_tramp_insns;
        let d = Decode.decode (tramp_window va) 0 in
        for i = 0 to d.Decode.len - 1 do
          if tramp_byte (va + i) = None then
            fail va "trampoline decoding left the mapped region"
        done;
        match d.Decode.insn with
        | Insn.Jmp rel | Insn.Jmp_short rel -> `Jmp (va + d.Decode.len + rel)
        | Insn.Jmp_ind op -> `Jmp_ind (op, va, d.Decode.len)
        | Insn.Ret -> `Ret
        | Insn.Jcc (c, rel) | Insn.Jcc_short (c, rel) ->
            jcc_targets := (c, va + d.Decode.len + rel) :: !jcc_targets;
            step (va + d.Decode.len) (n + 1)
        | Insn.Call rel ->
            call_targets := (va + d.Decode.len + rel) :: !call_targets;
            step (va + d.Decode.len) (n + 1)
        | Insn.Int3 | Insn.Ud2 | Insn.Unknown _ ->
            fail va "invalid instruction inside trampoline"
        | _ -> step (va + d.Decode.len) (n + 1)
      in
      let terminal = step t 0 in
      incr trampolines_checked;
      match (insn, terminal) with
      | (Insn.Jmp rel | Insn.Jmp_short rel), `Jmp tgt ->
          if tgt <> ret + rel then
            fail t
              "terminal jump reaches 0x%x, not the displaced jump's target \
               0x%x"
              tgt (ret + rel)
      | (Insn.Jcc (c, rel) | Insn.Jcc_short (c, rel)), `Jmp tgt ->
          if tgt <> ret then
            fail t "terminal jump reaches 0x%x, not the continuation 0x%x" tgt
              ret;
          if
            not
              (List.exists
                 (fun (c', tg) -> c' = c && tg = ret + rel)
                 !jcc_targets)
          then
            fail t "no conditional branch to the displaced jcc's target 0x%x"
              (ret + rel)
      | Insn.Call rel, `Jmp tgt ->
          if tgt <> ret then
            fail t "terminal jump reaches 0x%x, not the continuation 0x%x" tgt
              ret;
          if not (List.mem (ret + rel) !call_targets) then
            fail t "no call to the displaced call's target 0x%x" (ret + rel)
      | Insn.Ret, `Ret -> ()
      | Insn.Jmp_ind (Insn.Mem m), `Jmp_ind (Insn.Mem m', va', dlen)
        when m.Insn.rip_rel && m'.Insn.rip_rel ->
          if va' + dlen + m'.Insn.disp <> ret + m.Insn.disp then
            fail t "retargeted rip-relative operand resolves elsewhere"
      | Insn.Jmp_ind op, `Jmp_ind (op', _, _) ->
          if not (Insn.equal (Insn.Jmp_ind op) (Insn.Jmp_ind op')) then
            fail t "indirect-jump operand changed in the trampoline"
      | _, `Jmp tgt ->
          if tgt <> ret then
            fail t "terminal jump reaches 0x%x, not the continuation 0x%x" tgt
              ret
      | _, _ ->
          fail t "terminal transfer has the wrong shape for %s"
            (Insn.to_string insn)
    in
    (* Serving-site resolution: a boundary jump serves itself; a
       non-boundary jump must be the target of a T3 short jump. *)
    List.iter
      (fun j ->
        let served =
          if is_bound j.start then j.start
          else
            match Hashtbl.find_opt short_site j.start with
            | Some p -> p
            | None ->
                fail j.start
                  "punned jump at a non-boundary address with no serving \
                   short jump"
        in
        verify_tramp ~site_addr:served j.target)
      jmps;
    (* Every trap-table entry must mark a real int3 at a boundary and have a
       verifiable trampoline. *)
    Hashtbl.iter
      (fun p t ->
        if not (in_disasm p) then fail p "trap entry outside the code region";
        if rbyte p <> 0xcc then fail p "trap entry does not mark an int3";
        verify_tramp ~site_addr:p t)
      trap_tbl;
    (* ---- per-byte classification --------------------------------- *)
    let orig_len a = match bound a with Some (l, _) -> l | None -> 0 in
    (* Any diversion covering [a] starts within [longest] bytes below it,
       so probing the start index downward from [a] finds the covering
       diversion with the highest start first. *)
    let longest = !longest in
    let rec probe_down a s =
      if s <= a - longest then None
      else
        match div s with
        | Some j when j.start + j.jlen > a -> Some j
        | _ -> probe_down a (s - 1)
    in
    let rec probe_up s hi p =
      s < hi
      && ((match div s with Some j -> p j | None -> false)
         || probe_up (s + 1) hi p)
    in
    let classify a =
      if rbyte a = 0xcc && Hashtbl.mem trap_tbl a then Trap
      else if Hashtbl.mem short_target a || Hashtbl.mem short_target (a - 1)
      then Short_jump
      else
        match probe_down a a with
        | None -> fail a "internal: changed byte lost its classification"
        | Some j ->
            if not (is_bound j.start) then T3_victim
            else if probe_down j.start (j.start - 1) <> None then T2_evictee
            else if
              probe_up (j.start + 1) (j.start + j.jlen) (fun j' ->
                  not (is_bound j'.start))
            then T3_victim
            else if a - j.start >= orig_len j.start then Pun_overhang
            else Patch_jump
    in
    let classified = List.map (fun a -> (a, classify a)) changed in
    Ok
      { changed_bytes = List.length changed;
        diversions = List.length jmps;
        short_jumps = List.length shorts;
        traps = Hashtbl.length trap_tbl;
        trampolines_checked = !trampolines_checked;
        classified }
  with Fail e -> Error e
