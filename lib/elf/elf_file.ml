module Buf = E9_bits.Buf

type etype = Exec | Dyn
type prot = { r : bool; w : bool; x : bool }

let prot_rx = { r = true; w = false; x = true }
let prot_rw = { r = true; w = true; x = false }
let prot_r = { r = true; w = false; x = false }

type ptype = Load | Note | Other of int

type segment = {
  ptype : ptype;
  prot : prot;
  vaddr : int;
  offset : int;
  filesz : int;
  memsz : int;
  align : int;
}

type section = {
  name : string;
  sh_type : int;
  sh_flags : int;
  addr : int;
  offset : int;
  size : int;
}

type t = {
  mutable etype : etype;
  mutable entry : int;
  mutable segments : segment list;
  mutable sections : section list;
  data : Buf.t;
}

let mmap_section_name = ".e9patch.mmap"
let trap_section_name = ".e9patch.trap"

(* Offsets 0..header_reserve-1 of [data] are reserved for the ELF header and
   program headers, written at serialization time. Content never moves. A
   parsed file has no such reserve: its headers may be followed directly by
   content ([.interp] at 0x318 in a typical PIE), see [phdr_overlap]. *)
let header_reserve = 4096
let ehdr_size = 64
let phent_size = 56
let shent_size = 64

let create ~etype ~entry =
  let data = Buf.create header_reserve in
  ignore (Buf.add_zeros data header_reserve);
  { etype; entry; segments = []; sections = []; data }

(* Pad so that the next offset is congruent to [vaddr] modulo [align]. *)
let pad_congruent data ~vaddr ~align =
  if align > 1 then begin
    let off = Buf.length data in
    let want = vaddr mod align and have = off mod align in
    let pad = (want - have + align) mod align in
    ignore (Buf.add_zeros data pad)
  end

let add_segment t seg ~content =
  pad_congruent t.data ~vaddr:seg.vaddr ~align:seg.align;
  let offset = Buf.add_bytes t.data content in
  let seg = { seg with offset; filesz = Bytes.length content } in
  t.segments <- t.segments @ [ seg ];
  offset

let add_section t ~name ~addr ~sh_type ~sh_flags ~content =
  let offset = Buf.add_bytes t.data content in
  let s = { name; sh_type; sh_flags; addr; offset; size = Bytes.length content } in
  t.sections <- t.sections @ [ s ];
  offset

let find_section t name = List.find_opt (fun s -> s.name = name) t.sections

(* Independent clone: one content copy, no serialize/re-parse round trip.
   Segments and sections are immutable records, so sharing the list spines
   is safe; only the lists themselves and the data buffer are fresh. *)
let copy t =
  { etype = t.etype;
    entry = t.entry;
    segments = t.segments;
    sections = t.sections;
    data = Buf.copy t.data }

let section_bytes t s = Buf.sub t.data ~pos:s.offset ~len:s.size

let segment_at t vaddr =
  List.find_opt
    (fun s -> s.ptype = Load && vaddr >= s.vaddr && vaddr < s.vaddr + s.memsz)
    t.segments

let prot_flags p =
  (if p.x then 1 else 0) lor (if p.w then 2 else 0) lor if p.r then 4 else 0

let prot_of_flags f = { x = f land 1 <> 0; w = f land 2 <> 0; r = f land 4 <> 0 }

let ptype_code = function Load -> 1 | Note -> 4 | Other n -> n
let ptype_of_code = function 1 -> Load | 4 -> Note | n -> Other n

(* What [to_bytes t] writes after the content: the section name table
   ([.shstrtab]: each header's name), padding to 8, then the section
   header table at [shoff]: [headers], each with its name's offset in the
   table (the null header, the sections, the name table's own). *)
type layout = {
  shstrtab : Buffer.t;
  headers : (section * int) list;
  shoff : int;
  file_size : int;
}

let layout t =
  let shstrtab = Buffer.create 64 in
  let add name =
    let idx = Buffer.length shstrtab in
    Buffer.add_string shstrtab name;
    Buffer.add_char shstrtab '\000';
    idx
  in
  let null =
    { name = ""; sh_type = 0; sh_flags = 0; addr = 0; offset = 0; size = 0 }
  in
  let named = List.map (fun s -> (s, add s.name)) (null :: t.sections) in
  let own_name = add ".shstrtab" in
  let own =
    { null with
      name = ".shstrtab"; sh_type = 3; offset = Buf.length t.data;
      size = Buffer.length shstrtab }
  in
  let headers = named @ [ (own, own_name) ] in
  let shoff = (own.offset + own.size + 7) / 8 * 8 in
  { shstrtab; headers; shoff;
    file_size = shoff + (List.length headers * shent_size) }

let serialized_size t = (layout t).file_size

(* The first file offset past the ELF header that holds content: a
   section's bytes, or a segment's that does not start inside the ELF
   header (a PT_LOAD from offset 0 and the PT_PHDR entry map the headers
   themselves). The image end bounds a file with no content yet. *)
let content_start t =
  let lo =
    List.fold_left
      (fun lo s ->
        if s.size > 0 && s.sh_type <> 0 && s.sh_type <> 8 then min lo s.offset
        else lo)
      (Buf.length t.data) t.sections
  in
  List.fold_left
    (fun lo s ->
      if s.filesz > 0 && s.offset > ehdr_size then min lo s.offset else lo)
    lo t.segments

let phdr_overlap t ~phnum =
  let start = content_start t in
  if ehdr_size + (phnum * phent_size) > start then Some start else None

let set16 img i v = Bytes.set_uint16_le img i (v land 0xffff)
let set32 img i v = Bytes.set_int32_le img i (Int32.of_int v)
let set64 img i v = Bytes.set_int64_le img i (Int64.of_int v)

(* The image [t]'s content in a buffer of [size] bytes (zeros past the
   content), headed by the ELF header, which places [shnum] section
   headers at [shoff], and the program headers. Raises [Failure] instead
   of writing program headers over content. *)
let headed t ~size ~shoff ~shnum =
  let phnum = List.length t.segments in
  (match phdr_overlap t ~phnum with
  | Some off ->
      failwith
        (Printf.sprintf
           "Elf_file: %d program headers would overwrite content at file \
            offset 0x%x"
           phnum off)
  | None -> ());
  let img = Bytes.make size '\000' in
  Bytes.blit (Buf.raw t.data) 0 img 0 (Buf.length t.data);
  Bytes.blit_string "\x7fELF\002\001\001" 0 img 0 7;
  (* ELFCLASS64, little endian, EV_CURRENT *)
  set16 img 16 (match t.etype with Exec -> 2 | Dyn -> 3);
  set16 img 18 62;
  (* EM_X86_64 *)
  set32 img 20 1;
  set64 img 24 t.entry;
  set64 img 32 ehdr_size;
  (* e_phoff *)
  set64 img 40 shoff;
  set32 img 48 0;
  (* e_flags *)
  set16 img 52 ehdr_size;
  set16 img 54 phent_size;
  set16 img 56 phnum;
  set16 img 58 (if shnum = 0 then 0 else shent_size);
  set16 img 60 shnum;
  set16 img 62 (max 0 (shnum - 1));
  (* e_shstrndx: the name table's header is the last *)
  List.iteri
    (fun i seg ->
      let base = ehdr_size + (i * phent_size) in
      set32 img base (ptype_code seg.ptype);
      set32 img (base + 4) (prot_flags seg.prot);
      set64 img (base + 8) seg.offset;
      set64 img (base + 16) seg.vaddr;
      set64 img (base + 24) seg.vaddr;
      (* p_paddr *)
      set64 img (base + 32) seg.filesz;
      set64 img (base + 40) seg.memsz;
      set64 img (base + 48) seg.align)
    t.segments;
  img

let to_bytes t =
  let l = layout t in
  let img =
    headed t ~size:l.file_size ~shoff:l.shoff ~shnum:(List.length l.headers)
  in
  Buffer.blit l.shstrtab 0 img (Buf.length t.data) (Buffer.length l.shstrtab);
  List.iteri
    (fun i (s, name) ->
      let at = l.shoff + (i * shent_size) in
      set32 img at name;
      set32 img (at + 4) s.sh_type;
      set64 img (at + 8) s.sh_flags;
      set64 img (at + 16) s.addr;
      set64 img (at + 24) s.offset;
      set64 img (at + 32) s.size;
      (* sh_link, sh_info: 0; sh_addralign: 1; sh_entsize: 0 *)
      set64 img (at + 48) 1)
    l.headers;
  img

(* What a fully stripped toolchain leaves behind: [to_bytes] without the
   section header table; parsing it back exercises the program-header
   fallback. *)
let to_bytes_stripped t =
  headed t ~size:(Buf.length t.data) ~shoff:0 ~shnum:0

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let of_bytes bytes =
  let img = Buf.of_bytes bytes in
  let len = Buf.length img in
  if len < ehdr_size then malformed "truncated header (%d bytes)" len;
  if Buf.get_u32 img 0 <> 0x464c457f then malformed "bad magic";
  if Buf.get_u8 img 4 <> 2 || Buf.get_u8 img 5 <> 1 then
    malformed "not little-endian ELF64";
  let etype =
    match Buf.get_u16 img 16 with
    | 2 -> Exec
    | 3 -> Dyn
    | n -> malformed "unsupported e_type %d" n
  in
  let entry = Int64.to_int (Buf.get_u64 img 24) in
  let phoff = Int64.to_int (Buf.get_u64 img 32) in
  let shoff = Int64.to_int (Buf.get_u64 img 40) in
  let phentsize = Buf.get_u16 img 54 in
  let phnum = Buf.get_u16 img 56 in
  let shentsize = Buf.get_u16 img 58 in
  let shnum = Buf.get_u16 img 60 in
  let shstrndx = Buf.get_u16 img 62 in
  (* Header-table geometry must be sane before any entry is read: a zero
     or alien entry size would misalign every subsequent field read, and a
     table extending past EOF would turn into Invalid_argument from the
     byte accessors instead of a typed error. *)
  if phnum > 0 && phentsize <> phent_size then
    malformed "zero-sized or alien phdr entries (e_phentsize=%d)" phentsize;
  if shnum > 0 && shentsize <> shent_size then
    malformed "zero-sized or alien shdr entries (e_shentsize=%d)" shentsize;
  if phnum > 0 && (phoff < 0 || phoff + (phnum * phent_size) > len) then
    malformed "truncated program headers (%d entries at 0x%x, file is %d)"
      phnum phoff len;
  if shnum > 0 && (shoff < 0 || shoff + (shnum * shent_size) > len) then
    malformed "truncated section headers (%d entries at 0x%x, file is %d)"
      shnum shoff len;
  let segments =
    List.init phnum (fun i ->
        let base = phoff + (i * phent_size) in
        let seg =
          { ptype = ptype_of_code (Buf.get_u32 img base);
            prot = prot_of_flags (Buf.get_u32 img (base + 4));
            offset = Int64.to_int (Buf.get_u64 img (base + 8));
            vaddr = Int64.to_int (Buf.get_u64 img (base + 16));
            filesz = Int64.to_int (Buf.get_u64 img (base + 32));
            memsz = Int64.to_int (Buf.get_u64 img (base + 40));
            align = Int64.to_int (Buf.get_u64 img (base + 48)) }
        in
        (if seg.ptype = Load then begin
           if seg.filesz < 0 || seg.offset < 0 || seg.offset + seg.filesz > len
           then
             malformed "PT_LOAD %d file range [0x%x, 0x%x) outside the image"
               i seg.offset (seg.offset + seg.filesz);
           if seg.memsz < seg.filesz then
             malformed "PT_LOAD %d has memsz %d < filesz %d" i seg.memsz
               seg.filesz
         end);
        seg)
  in
  (* PT_LOAD images must not overlap in memory: the rewriter's layout
     allocator and the loader both assume each address has one home. *)
  (let loads =
     List.filter (fun s -> s.ptype = Load) segments
     |> List.sort (fun a b -> compare a.vaddr b.vaddr)
   in
   let rec check = function
     | a :: (b :: _ as rest) ->
         if a.vaddr + a.memsz > b.vaddr then
           malformed "overlapping PT_LOAD segments at 0x%x and 0x%x" a.vaddr
             b.vaddr;
         check rest
     | _ -> ()
   in
   check loads);
  let raw_sections =
    List.init shnum (fun i ->
        let base = shoff + (i * shent_size) in
        ( Buf.get_u32 img base,
          { name = "";
            sh_type = Buf.get_u32 img (base + 4);
            sh_flags = Int64.to_int (Buf.get_u64 img (base + 8));
            addr = Int64.to_int (Buf.get_u64 img (base + 16));
            offset = Int64.to_int (Buf.get_u64 img (base + 24));
            size = Int64.to_int (Buf.get_u64 img (base + 32)) } ))
  in
  let strtab =
    match List.nth_opt raw_sections shstrndx with
    | Some (_, s) ->
        if s.size < 0 || s.offset < 0 || s.offset + s.size > len then
          malformed "string table [0x%x, 0x%x) outside the image" s.offset
            (s.offset + s.size);
        Buf.sub img ~pos:s.offset ~len:s.size
    | None ->
        (* [shstrndx = 0] (SHN_UNDEF) legitimately means "no string
           table" — including the fully stripped case where [shnum = 0].
           A nonzero index with no such section is a lie in the header:
           refuse rather than silently dropping every section name. *)
        if shstrndx = 0 then Bytes.empty
        else
          malformed "e_shstrndx %d out of range (%d section headers)"
            shstrndx shnum
  in
  let name_at idx =
    if idx >= Bytes.length strtab then ""
    else
      match Bytes.index_from_opt strtab idx '\000' with
      | Some stop -> Bytes.sub_string strtab idx (stop - idx)
      | None -> malformed "unterminated section name at strtab+%d" idx
  in
  let sections =
    raw_sections
    |> List.map (fun (name_idx, s) -> { s with name = name_at name_idx })
    |> List.filter (fun s -> s.sh_type <> 0 && s.name <> ".shstrtab")
  in
  (* Keep only the content up to the section header table: the string table
     and headers are regenerated on the next [to_bytes]. A fully stripped
     image (shnum = 0, shoff = 0) has no table to cut at — the whole file
     is content and the program headers alone describe it. An image that
     claims zero sections but still points at a table is ambiguous (stale
     offset? hidden data?): refuse with a typed error instead of guessing
     where content ends. *)
  let content_len =
    if shnum = 0 then
      if shoff = 0 then Buf.length img
      else
        malformed "no section headers but e_shoff = 0x%x; ambiguous extent"
          shoff
    else min (Buf.length img) shoff
  in
  (* A string table laid out as [to_bytes] lays it out — after every
     segment's and section's file bytes, followed only by alignment
     padding up to the header table — is regenerated too: cut it, so
     [of_bytes] and [to_bytes] reach a fixed point instead of carrying one
     more stale table per round trip. *)
  let content_len =
    match List.nth_opt raw_sections shstrndx with
    | Some (_, st)
      when shstrndx > 0
           && (st.offset + st.size + 7) / 8 * 8 = content_len
           && st.offset >= phoff + (phnum * phent_size)
           && List.for_all
                (fun s -> s.filesz = 0 || s.offset + s.filesz <= st.offset)
                segments
           && List.for_all
                (fun s ->
                  s.sh_type = 0 || s.sh_type = 8
                  || s.offset + s.size <= st.offset)
                sections ->
        st.offset
    | _ -> content_len
  in
  Buf.truncate img content_len;
  { etype; entry; segments; sections; data = img }

exception Io_error of string

(* Atomic: a failure mid-write (real short write, or one injected via
   [fault]) leaves nothing at [path] — a partially serialized ELF must
   never be mistaken for output. *)
let write_file ?fault t path =
  let data = Bytes.unsafe_to_string (to_bytes t) in
  try E9_bits.Atomic_file.write ?fault path data
  with Sys_error m -> raise (Io_error m)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all
  |> Bytes.unsafe_of_string |> of_bytes
