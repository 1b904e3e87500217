exception Fault of int * string

let page_size = 4096
let page_bits = 12

type page = {
  mutable bytes : Bytes.t;
  mutable prot : Elf_file.prot;
  (* A shared page is aliased at several page numbers (one-to-many
     trampoline mappings, §4's physical page grouping). Shared records are
     immutable: remapping or zeroing one alias replaces that page-table
     entry with a private copy instead of mutating the shared record.
     Sharing is only ever created for non-writable protections, so the
     data-write path cannot reach a shared page. *)
  mutable shared : bool;
}

module Itbl = E9_bits.Itbl

let tlb_slots = 64

type t = {
  pages : page Itbl.t;
  (* Zero-filled regions are materialized lazily: a multi-GiB .bss must not
     allocate host memory until touched. Newest first (later maps win). *)
  mutable zero_regions : (int * int * Elf_file.prot) list;
  (* Protection-checked, direct-mapped TLBs, one for reads and one for
     writes: slot [pn land (tlb_slots - 1)] holds page [pn] once it has
     passed the read (resp. write) permission check, so a hit is one
     compare and no page-table walk. Stack, data and text pages sit in
     different slots instead of evicting one another. Every mapping
     operation flushes both (a tag of -1 matches no page number). *)
  rd_tag : int array;
  rd_page : page array;
  wr_tag : int array;
  wr_page : page array;
  (* Bumped whenever the contents or protections of executable memory may
     have changed: any data write to an executable page and any mapping
     operation that creates, replaces or re-protects an executable page.
     The emulator's superblock cache of decoded instructions compares
     against this to invalidate — the contract is: a cached decode is valid
     only while the generation is unchanged. *)
  mutable code_gen : int;
  (* Page-sharing table for [map_sub]: canonical page per (source buffer,
     source offset) so mapping the same non-writable file page at many
     virtual addresses aliases one host allocation. Keyed by source offset;
     [share_src] identifies the buffer (physical equality) — a map from a
     different buffer resets the table. *)
  mutable share_src : Bytes.t;
  share_pages : page Itbl.t;
}

let no_page = { bytes = Bytes.empty; prot = Elf_file.prot_r; shared = false }

let create () =
  { pages = Itbl.create 1024;
    zero_regions = [];
    rd_tag = Array.make tlb_slots (-1);
    rd_page = Array.make tlb_slots no_page;
    wr_tag = Array.make tlb_slots (-1);
    wr_page = Array.make tlb_slots no_page;
    code_gen = 0;
    share_src = Bytes.empty;
    share_pages = Itbl.create 64 }

let generation t = t.code_gen

let fault addr msg = raise (Fault (addr, msg))

let flush_tlbs t =
  Array.fill t.rd_tag 0 tlb_slots (-1);
  Array.fill t.wr_tag 0 tlb_slots (-1)

let materialize_zero t pn =
  (* A page is backed by a zero region when any of its bytes fall inside
     one; the region's protection applies. *)
  let lo = pn lsl page_bits and hi = (pn + 1) lsl page_bits in
  match
    List.find_opt (fun (rlo, rhi, _) -> rlo < hi && rhi > lo) t.zero_regions
  with
  | Some (_, _, prot) ->
      let p = { bytes = Bytes.make page_size '\000'; prot; shared = false } in
      Itbl.replace t.pages pn p;
      Some p
  | None -> None

let page_of t pn =
  match Itbl.find_opt t.pages pn with
  | Some _ as p -> p
  | None -> materialize_zero t pn

let ensure_page t pn prot =
  match page_of t pn with
  | Some p when not p.shared ->
      if p.prot.Elf_file.x || prot.Elf_file.x then
        t.code_gen <- t.code_gen + 1;
      p.prot <- prot;
      p
  | Some p ->
      (* Remapping over an alias: privatize this entry, leave the shared
         record (and every other alias) untouched. *)
      if p.prot.Elf_file.x || prot.Elf_file.x then
        t.code_gen <- t.code_gen + 1;
      let q = { bytes = Bytes.copy p.bytes; prot; shared = false } in
      Itbl.replace t.pages pn q;
      q
  | None ->
      if prot.Elf_file.x then t.code_gen <- t.code_gen + 1;
      let p = { bytes = Bytes.make page_size '\000'; prot; shared = false } in
      Itbl.replace t.pages pn p;
      p

let map_sub t ~vaddr ~prot content ~src_off ~len =
  if src_off < 0 || len < 0 || src_off + len > Bytes.length content then
    invalid_arg "Space.map_sub";
  flush_tlbs t;
  if t.share_src != content then begin
    Itbl.reset t.share_pages;
    t.share_src <- content
  end;
  let pos = ref 0 in
  while !pos < len do
    let addr = vaddr + !pos in
    let pn = addr lsr page_bits in
    let off = addr land (page_size - 1) in
    let chunk = min (page_size - off) (len - !pos) in
    let src = src_off + !pos in
    (* Full, aligned, non-writable pages alias one canonical host page per
       source offset — the in-emulator realization of physical page
       grouping: mapping a trampoline page at N virtual addresses costs one
       allocation, not N. Everything else copies as before. *)
    if off = 0 && chunk = page_size && not prot.Elf_file.w then begin
      (match page_of t pn with
      | Some p when p.prot.Elf_file.x -> t.code_gen <- t.code_gen + 1
      | Some _ | None -> ());
      if prot.Elf_file.x then t.code_gen <- t.code_gen + 1;
      let canon =
        match Itbl.find_opt t.share_pages src with
        | Some p when p.prot = prot -> p
        | Some _ | None ->
            let p =
              { bytes = Bytes.sub content src page_size; prot; shared = true }
            in
            Itbl.replace t.share_pages src p;
            p
      in
      Itbl.replace t.pages pn canon
    end
    else begin
      let p = ensure_page t pn prot in
      Bytes.blit content src p.bytes off chunk
    end;
    pos := !pos + chunk
  done

let map_bytes t ~vaddr ~prot content =
  map_sub t ~vaddr ~prot content ~src_off:0 ~len:(Bytes.length content)

let map_zero t ~vaddr ~len ~prot =
  if len > 0 then begin
    flush_tlbs t;
    if prot.Elf_file.x then t.code_gen <- t.code_gen + 1;
    (* Pages already materialized are zeroed eagerly (the covered part);
       untouched pages wait in [zero_regions]. *)
    let first = vaddr lsr page_bits and last = (vaddr + len - 1) lsr page_bits in
    if last - first < 16 then
      for pn = first to last do
        let p = ensure_page t pn prot in
        let lo = max vaddr (pn lsl page_bits) in
        let hi = min (vaddr + len) ((pn + 1) lsl page_bits) in
        Bytes.fill p.bytes (lo land (page_size - 1)) (hi - lo) '\000'
      done
    else begin
      for pn = first to last do
        match Itbl.find_opt t.pages pn with
        | Some p ->
            if p.prot.Elf_file.x then t.code_gen <- t.code_gen + 1;
            let p =
              if not p.shared then p
              else begin
                let q =
                  { bytes = Bytes.copy p.bytes; prot; shared = false }
                in
                Itbl.replace t.pages pn q;
                q
              end
            in
            p.prot <- prot;
            let lo = max vaddr (pn lsl page_bits) in
            let hi = min (vaddr + len) ((pn + 1) lsl page_bits) in
            Bytes.fill p.bytes (lo land (page_size - 1)) (hi - lo) '\000'
        | None -> ()
      done;
      t.zero_regions <- (vaddr, vaddr + len, prot) :: t.zero_regions
    end
  end

let get_page_for t addr ~write ~exec =
  match page_of t (addr lsr page_bits) with
  | None -> fault addr "unmapped"
  | Some p ->
      if write && not p.prot.w then fault addr "write to read-only page";
      if exec && not p.prot.x then fault addr "fetch from non-executable page";
      if (not write) && (not exec) && not p.prot.r then
        fault addr "read from unreadable page";
      p

(* TLB lookups. A hit means the page already passed the corresponding
   check since the last mapping operation, so the common case is one
   compare. Writes to executable pages bump [code_gen] on every store
   (not just the first): decoded-code caches must observe each
   modification, including ones made after their last revalidation. *)
let read_page t addr =
  let pn = addr lsr page_bits in
  let s = pn land (tlb_slots - 1) in
  if Array.unsafe_get t.rd_tag s = pn then Array.unsafe_get t.rd_page s
  else begin
    let p = get_page_for t addr ~write:false ~exec:false in
    Array.unsafe_set t.rd_tag s pn;
    Array.unsafe_set t.rd_page s p;
    p
  end

let write_page t addr =
  let pn = addr lsr page_bits in
  let s = pn land (tlb_slots - 1) in
  let p =
    if Array.unsafe_get t.wr_tag s = pn then Array.unsafe_get t.wr_page s
    else begin
      let p = get_page_for t addr ~write:true ~exec:false in
      Array.unsafe_set t.wr_tag s pn;
      Array.unsafe_set t.wr_page s p;
      p
    end
  in
  if p.prot.Elf_file.x then t.code_gen <- t.code_gen + 1;
  p

let read_u8 t addr =
  let p = read_page t addr in
  Char.code (Bytes.unsafe_get p.bytes (addr land (page_size - 1)))

let write_u8 t addr v =
  let p = write_page t addr in
  Bytes.unsafe_set p.bytes (addr land (page_size - 1)) (Char.chr (v land 0xff))

(* An access that crosses a page goes byte by byte, reads from the
   highest byte down and writes from the lowest up, so a fault names
   the same byte it always has. *)
let read_bytewise t addr n =
  let v = ref 0 in
  for i = n - 1 downto 0 do
    v := (!v lsl 8) lor read_u8 t (addr + i)
  done;
  !v

let write_bytewise t addr n v =
  for i = 0 to n - 1 do
    write_u8 t (addr + i) ((v lsr (8 * i)) land 0xff)
  done

(* Within one page a word is one load or store. Values are 63-bit: a
   64-bit read drops byte 7's top bit, a 64-bit write stores it clear. *)
let read_u32 t addr =
  let off = addr land (page_size - 1) in
  if off <= page_size - 4 then
    Int32.to_int (Bytes.get_int32_le (read_page t addr).bytes off)
    land 0xffff_ffff
  else read_bytewise t addr 4

let read_u64 t addr =
  let off = addr land (page_size - 1) in
  if off <= page_size - 8 then
    Int64.to_int (Bytes.get_int64_le (read_page t addr).bytes off)
  else read_bytewise t addr 8

let write_u32 t addr v =
  let off = addr land (page_size - 1) in
  if off <= page_size - 4 then
    Bytes.set_int32_le (write_page t addr).bytes off (Int32.of_int v)
  else write_bytewise t addr 4 v

let write_u64 t addr v =
  let off = addr land (page_size - 1) in
  if off <= page_size - 8 then
    Bytes.set_int64_le (write_page t addr).bytes off
      (Int64.logand (Int64.of_int v) Int64.max_int)
  else write_bytewise t addr 8 v

(* One page lookup per page touched: the bytes up to the NUL, the cap
   or the page end, whichever comes first, then on into the next page.
   A string of [max] bytes still reads the byte after them, as a byte
   loop would, so the same byte faults. *)
let read_cstring t addr ~max =
  let buf = Buffer.create 32 in
  let rec go a =
    let p = read_page t a in
    let off = a land (page_size - 1) in
    let room = max - Buffer.length buf in
    let limit = min page_size (off + room + 1) in
    let rec scan i =
      if i < limit && Bytes.unsafe_get p.bytes i <> '\000' then scan (i + 1)
      else i
    in
    let i = scan off in
    if i < limit then Buffer.add_subbytes buf p.bytes off (i - off)
    else if limit = off + room + 1 then Buffer.add_subbytes buf p.bytes off room
    else begin
      Buffer.add_subbytes buf p.bytes off (page_size - off);
      go (a + page_size - off)
    end
  in
  go addr;
  Buffer.contents buf

let read_bytes t addr len =
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set out i (Char.chr (read_u8 t (addr + i)))
  done;
  out

(* Instruction bytes: up to 16 from [addr], stopping at the first page
   that is unmapped or not executable. *)
let fetch_window t addr =
  let executable a =
    match page_of t (a lsr page_bits) with
    | Some p when p.prot.x -> Some p
    | Some _ | None -> None
  in
  (match page_of t (addr lsr page_bits) with
  | None -> fault addr "fetch from unmapped page"
  | Some p -> if not p.prot.x then fault addr "fetch from non-executable page");
  let out = Buffer.create 16 in
  let rec go a =
    let want = 16 - Buffer.length out in
    if want > 0 then
      match executable a with
      | Some p ->
          let off = a land (page_size - 1) in
          let n = min want (page_size - off) in
          Buffer.add_subbytes out p.bytes off n;
          go (a + n)
      | None -> ()
  in
  go addr;
  Buffer.to_bytes out
