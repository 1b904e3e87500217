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

type t = {
  pages : (int, page) Hashtbl.t;
  (* Zero-filled regions are materialized lazily: a multi-GiB .bss must not
     allocate host memory until touched. Newest first (later maps win). *)
  mutable zero_regions : (int * int * Elf_file.prot) list;
  (* One-entry cache of the last page touched: the hot path for both data
     access and instruction fetch. *)
  mutable last_pn : int;
  mutable last_page : page option;
  (* Protection-checked one-entry handles: a page that already passed the
     read (resp. write) permission check. The CPU's block execution loop
     hits these instead of re-walking the page table and re-checking
     protections on every access. Invalidated by any mapping operation. *)
  mutable rd_pn : int;
  mutable rd_page : page option;
  mutable wr_pn : int;
  mutable wr_page : page option;
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
  share_pages : (int, page) Hashtbl.t;
}

let create () =
  { pages = Hashtbl.create 1024;
    zero_regions = [];
    last_pn = -1;
    last_page = None;
    rd_pn = -1;
    rd_page = None;
    wr_pn = -1;
    wr_page = None;
    code_gen = 0;
    share_src = Bytes.empty;
    share_pages = Hashtbl.create 64 }

let generation t = t.code_gen

let fault addr msg = raise (Fault (addr, msg))

let invalidate_handles t =
  t.last_pn <- -1;
  t.last_page <- None;
  t.rd_pn <- -1;
  t.rd_page <- None;
  t.wr_pn <- -1;
  t.wr_page <- None

let materialize_zero t pn =
  (* A page is backed by a zero region when any of its bytes fall inside
     one; the region's protection applies. *)
  let lo = pn lsl page_bits and hi = (pn + 1) lsl page_bits in
  match
    List.find_opt (fun (rlo, rhi, _) -> rlo < hi && rhi > lo) t.zero_regions
  with
  | Some (_, _, prot) ->
      let p = { bytes = Bytes.make page_size '\000'; prot; shared = false } in
      Hashtbl.replace t.pages pn p;
      Some p
  | None -> None

let page_of t pn =
  if t.last_pn = pn then t.last_page
  else begin
    let p =
      match Hashtbl.find_opt t.pages pn with
      | Some _ as p -> p
      | None -> materialize_zero t pn
    in
    t.last_pn <- pn;
    t.last_page <- p;
    p
  end

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
      Hashtbl.replace t.pages pn q;
      t.last_pn <- pn;
      t.last_page <- Some q;
      q
  | None ->
      if prot.Elf_file.x then t.code_gen <- t.code_gen + 1;
      let p = { bytes = Bytes.make page_size '\000'; prot; shared = false } in
      Hashtbl.replace t.pages pn p;
      t.last_pn <- pn;
      t.last_page <- Some p;
      p

let map_sub t ~vaddr ~prot content ~src_off ~len =
  if src_off < 0 || len < 0 || src_off + len > Bytes.length content then
    invalid_arg "Space.map_sub";
  invalidate_handles t;
  if t.share_src != content then begin
    Hashtbl.reset t.share_pages;
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
        match Hashtbl.find_opt t.share_pages src with
        | Some p when p.prot = prot -> p
        | Some _ | None ->
            let p =
              { bytes = Bytes.sub content src page_size; prot; shared = true }
            in
            Hashtbl.replace t.share_pages src p;
            p
      in
      Hashtbl.replace t.pages pn canon
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
    invalidate_handles t;
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
        match Hashtbl.find_opt t.pages pn with
        | Some p ->
            if p.prot.Elf_file.x then t.code_gen <- t.code_gen + 1;
            let p =
              if not p.shared then p
              else begin
                let q =
                  { bytes = Bytes.copy p.bytes; prot; shared = false }
                in
                Hashtbl.replace t.pages pn q;
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

(* Permission-checked handle lookups. A hit means the page already passed
   the corresponding check since the last mapping operation, so the common
   case is one compare. Writes to executable pages bump [code_gen] on every
   store (not just the first): decoded-code caches must observe each
   modification, including ones made after their last revalidation. *)
let read_page t addr =
  let pn = addr lsr page_bits in
  if t.rd_pn = pn then
    match t.rd_page with
    | Some p -> p
    | None -> fault addr "unmapped"
  else begin
    let p = get_page_for t addr ~write:false ~exec:false in
    t.rd_pn <- pn;
    t.rd_page <- Some p;
    p
  end

let write_page t addr =
  let pn = addr lsr page_bits in
  let p =
    if t.wr_pn = pn then
      match t.wr_page with Some p -> p | None -> fault addr "unmapped"
    else begin
      let p = get_page_for t addr ~write:true ~exec:false in
      t.wr_pn <- pn;
      t.wr_page <- Some p;
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

(* Fast path: access that stays within one page. *)
let read_multi t addr n =
  let off = addr land (page_size - 1) in
  if off + n <= page_size then begin
    let p = read_page t addr in
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get p.bytes (off + i))
    done;
    !v
  end
  else begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl 8) lor read_u8 t (addr + i)
    done;
    !v
  end

let write_multi t addr n v =
  let off = addr land (page_size - 1) in
  if off + n <= page_size then begin
    let p = write_page t addr in
    for i = 0 to n - 1 do
      Bytes.unsafe_set p.bytes (off + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
    done
  end
  else
    for i = 0 to n - 1 do
      write_u8 t (addr + i) ((v lsr (8 * i)) land 0xff)
    done

let read_u32 t addr = read_multi t addr 4
let read_u64 t addr = read_multi t addr 8
let write_u32 t addr v = write_multi t addr 4 v
let write_u64 t addr v = write_multi t addr 8 v

let read_bytes t addr len =
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set out i (Char.chr (read_u8 t (addr + i)))
  done;
  out

let fetch_window t addr =
  let pn = addr lsr page_bits in
  (match page_of t pn with
  | None -> fault addr "fetch from unmapped page"
  | Some p -> if not p.prot.x then fault addr "fetch from non-executable page");
  let out = Buffer.create 16 in
  (try
     for i = 0 to 15 do
       let a = addr + i in
       match page_of t (a lsr page_bits) with
       | Some p when p.prot.x ->
           Buffer.add_char out (Bytes.get p.bytes (a land (page_size - 1)))
       | Some _ | None -> raise Exit
     done
   with Exit -> ());
  Buffer.to_bytes out
