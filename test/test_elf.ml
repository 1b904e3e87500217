(* Tests for the ELF64 reader/writer and the loadmap codecs. *)

module Buf = E9_bits.Buf

let mk_exec () =
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:0x400000 in
  let code = Bytes.of_string "\x90\x90\xc3" in
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = Elf_file.prot_rx;
         vaddr = 0x400000;
         offset = 0;
         filesz = 0;
         memsz = Bytes.length code;
         align = 4096 }
       ~content:code);
  elf

let test_roundtrip_header () =
  let elf = mk_exec () in
  let parsed = Elf_file.of_bytes (Elf_file.to_bytes elf) in
  Alcotest.(check int) "entry" 0x400000 parsed.Elf_file.entry;
  Alcotest.(check bool) "etype" true (parsed.Elf_file.etype = Elf_file.Exec);
  Alcotest.(check int) "segments" 1 (List.length parsed.Elf_file.segments)

let test_roundtrip_segment_content () =
  let elf = mk_exec () in
  let parsed = Elf_file.of_bytes (Elf_file.to_bytes elf) in
  let seg = List.hd parsed.Elf_file.segments in
  Alcotest.(check int) "vaddr" 0x400000 seg.Elf_file.vaddr;
  Alcotest.(check string)
    "content" "\x90\x90\xc3"
    (Bytes.to_string
       (Buf.sub parsed.Elf_file.data ~pos:seg.Elf_file.offset
          ~len:seg.Elf_file.filesz))

let test_segment_alignment_congruence () =
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:0x401234 in
  let off =
    Elf_file.add_segment elf
      { Elf_file.ptype = Elf_file.Load;
        prot = Elf_file.prot_rx;
        vaddr = 0x401234;
        offset = 0;
        filesz = 0;
        memsz = 16;
        align = 4096 }
      ~content:(Bytes.make 16 'x')
  in
  Alcotest.(check int) "offset congruent to vaddr mod align" (0x401234 mod 4096)
    (off mod 4096)

let test_sections_roundtrip () =
  let elf = mk_exec () in
  ignore
    (Elf_file.add_section elf ~name:".text" ~addr:0x400000 ~sh_type:1
       ~sh_flags:6 ~content:(Bytes.of_string "abc"));
  ignore
    (Elf_file.add_section elf ~name:Elf_file.mmap_section_name ~addr:0
       ~sh_type:1 ~sh_flags:0 ~content:(Bytes.make 32 '\000'));
  let parsed = Elf_file.of_bytes (Elf_file.to_bytes elf) in
  Alcotest.(check int) "two sections" 2 (List.length parsed.Elf_file.sections);
  match Elf_file.find_section parsed ".text" with
  | Some s ->
      Alcotest.(check string) "content" "abc"
        (Bytes.to_string (Elf_file.section_bytes parsed s))
  | None -> Alcotest.fail "missing .text"

(* The generated string table is regenerated on every serialization, so
   parsing cuts it: a second round trip reproduces the first file. *)
let test_roundtrip_fixed_point () =
  let elf = mk_exec () in
  ignore
    (Elf_file.add_section elf ~name:".text" ~addr:0x400000 ~sh_type:1
       ~sh_flags:6 ~content:(Bytes.of_string "abc"));
  let once = Elf_file.to_bytes elf in
  let parsed = Elf_file.of_bytes once in
  Alcotest.(check int) "content length kept"
    (Buf.length elf.Elf_file.data) (Buf.length parsed.Elf_file.data);
  Alcotest.(check bool) "second file identical" true
    (Bytes.equal once (Elf_file.to_bytes parsed))

let test_segment_at () =
  let elf = mk_exec () in
  (match Elf_file.segment_at elf 0x400001 with
  | Some s -> Alcotest.(check int) "found" 0x400000 s.Elf_file.vaddr
  | None -> Alcotest.fail "segment_at failed");
  Alcotest.(check bool) "outside" true (Elf_file.segment_at elf 0x500000 = None)

let test_bss_memsz () =
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:0x400000 in
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = Elf_file.prot_rw;
         vaddr = 0x600000;
         offset = 0;
         filesz = 0;
         memsz = 8192;
         align = 4096 }
       ~content:(Bytes.make 100 'd'));
  let parsed = Elf_file.of_bytes (Elf_file.to_bytes elf) in
  let seg = List.hd parsed.Elf_file.segments in
  Alcotest.(check int) "filesz" 100 seg.Elf_file.filesz;
  Alcotest.(check int) "memsz preserved" 8192 seg.Elf_file.memsz

let test_reject_garbage () =
  Alcotest.check_raises "bad magic" (Elf_file.Malformed "bad magic") (fun () ->
      ignore (Elf_file.of_bytes (Bytes.make 100 'A')))

(* ------------------------------------------------------------------ *)
(* Malformed inputs: every structural defect must surface as a typed
   [Elf_file.Malformed], never as an [Invalid_argument]/[Not_found]
   escaping the byte accessors — the fuzz harness and CLI rely on
   catching exactly that exception.                                    *)
(* ------------------------------------------------------------------ *)

(* A valid image to corrupt. Fixed ELF64 header offsets: e_phoff=32,
   e_shoff=40, e_phentsize=54, e_phnum=56, e_shentsize=58; phdr 0 starts
   at 64 with p_filesz at +32 and p_memsz at +40. *)
let corrupted f =
  let b = Elf_file.to_bytes (mk_exec ()) in
  f b;
  b

let expect_malformed label bytes =
  match Elf_file.of_bytes bytes with
  | _ -> Alcotest.failf "%s: malformed image was accepted" label
  | exception Elf_file.Malformed _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Malformed, got %s" label
        (Printexc.to_string e)

let test_malformed_truncated_header () =
  expect_malformed "10-byte file" (Bytes.make 10 '\x7f')

let test_malformed_zero_phentsize () =
  expect_malformed "e_phentsize=0"
    (corrupted (fun b -> Bytes.set_uint16_le b 54 0))

let test_malformed_alien_shentsize () =
  expect_malformed "e_shentsize=12"
    (corrupted (fun b -> Bytes.set_uint16_le b 58 12))

let test_malformed_truncated_phdrs () =
  expect_malformed "e_phoff past EOF"
    (corrupted (fun b -> Bytes.set_int64_le b 32 (Int64.of_int (Bytes.length b))))

let test_malformed_truncated_shdrs () =
  expect_malformed "e_shoff near EOF"
    (corrupted (fun b ->
         Bytes.set_int64_le b 40 (Int64.of_int (Bytes.length b - 1))))

let test_malformed_load_outside_image () =
  expect_malformed "p_filesz past EOF"
    (corrupted (fun b -> Bytes.set_int64_le b (64 + 32) 0x7fff_ffffL))

let test_malformed_memsz_lt_filesz () =
  expect_malformed "p_memsz < p_filesz"
    (corrupted (fun b -> Bytes.set_int64_le b (64 + 40) 0L))

let test_malformed_overlapping_loads () =
  (* add_segment does not validate; the reader must. *)
  let elf = mk_exec () in
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = Elf_file.prot_rw;
         vaddr = 0x400001;
         offset = 0;
         filesz = 0;
         memsz = 64;
         align = 4096 }
       ~content:(Bytes.make 64 'o'));
  expect_malformed "overlapping PT_LOAD" (Elf_file.to_bytes elf)

let expect_malformed_fn label f =
  match f () with
  | _ -> Alcotest.failf "%s: malformed payload was accepted" label
  | exception Elf_file.Malformed _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Malformed, got %s" label
        (Printexc.to_string e)

let test_malformed_tablemeta () =
  expect_malformed_fn "ragged length" (fun () ->
      Tablemeta.decode (Bytes.make 31 '\000'));
  let bad_kind = Bytes.make 32 '\000' in
  Bytes.set_uint8 bad_kind 8 7;
  expect_malformed_fn "bad kind tag" (fun () -> Tablemeta.decode bad_kind);
  let neg_entries = Bytes.make 32 '\000' in
  Bytes.set_int64_le neg_entries 24 (-1L);
  expect_malformed_fn "negative entries" (fun () -> Tablemeta.decode neg_entries)

let test_malformed_loadmap () =
  expect_malformed_fn "ragged mapping table" (fun () ->
      Loadmap.decode_mappings (Bytes.make 33 '\000'));
  expect_malformed_fn "ragged trap table" (fun () ->
      Loadmap.decode_traps (Bytes.make 15 '\000'))

let test_loadmap_mappings () =
  let ms =
    [ { Loadmap.vaddr = 0x10000; file_off = 0x2000; len = 4096;
        prot = Elf_file.prot_rx };
      { Loadmap.vaddr = 0x20000; file_off = 0x2000; len = 4096;
        prot = Elf_file.prot_rx } ]
  in
  let decoded = Loadmap.decode_mappings (Loadmap.encode_mappings ms) in
  Alcotest.(check bool) "roundtrip" true (decoded = ms)

let test_loadmap_traps () =
  let ts =
    [ { Loadmap.patch_addr = 0x400123; trampoline_addr = 0x700000 };
      { Loadmap.patch_addr = 0x400456; trampoline_addr = 0x700040 } ]
  in
  let decoded = Loadmap.decode_traps (Loadmap.encode_traps ts) in
  Alcotest.(check bool) "roundtrip" true (decoded = ts)

let test_serialized_size () =
  (* serialized_size must track to_bytes exactly, including after edits —
     Rewriter relies on it for Size% without materializing the image. *)
  let elf = mk_exec () in
  let check_eq label =
    Alcotest.(check int) label
      (Bytes.length (Elf_file.to_bytes elf))
      (Elf_file.serialized_size elf)
  in
  check_eq "fresh";
  ignore
    (Elf_file.add_section elf ~name:".e9patch.tramp" ~addr:0 ~sh_type:1
       ~sh_flags:0 ~content:(Bytes.make 100 'x'));
  check_eq "after add_section";
  ignore
    (Elf_file.add_segment elf
       { Elf_file.ptype = Elf_file.Load;
         prot = Elf_file.prot_rw;
         vaddr = 0x600000;
         offset = 0;
         filesz = 0;
         memsz = 33;
         align = 4096 }
       ~content:(Bytes.make 33 'y'));
  check_eq "after add_segment"

let test_copy_independent () =
  let elf = mk_exec () in
  let snapshot = Elf_file.to_bytes elf in
  let c = Elf_file.copy elf in
  Alcotest.(check bytes) "copy serializes identically" snapshot
    (Elf_file.to_bytes c);
  (* Mutate the copy every way the rewriter does; the original must not
     move. *)
  c.Elf_file.entry <- 0x999;
  E9_bits.Buf.blit_in c.Elf_file.data ~pos:0 (Bytes.make 4 '\xff');
  ignore
    (Elf_file.add_section c ~name:".extra" ~addr:0 ~sh_type:1 ~sh_flags:0
       ~content:(Bytes.make 8 'z'));
  Alcotest.(check bytes) "original untouched" snapshot (Elf_file.to_bytes elf)

let test_file_io () =
  let elf = mk_exec () in
  let path = Filename.temp_file "e9test" ".elf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Elf_file.write_file elf path;
      let parsed = Elf_file.read_file path in
      Alcotest.(check int) "entry" 0x400000 parsed.Elf_file.entry)

let test_write_atomic_on_fault () =
  let elf = mk_exec () in
  let path = Filename.temp_file "e9test" ".elf" in
  Sys.remove path;
  (* An injected short-write is a typed Io_error and must leave neither
     the target nor the temporary behind. *)
  (match Elf_file.write_file ~fault:(fun () -> true) elf path with
  | () -> Alcotest.fail "expected Io_error"
  | exception Elf_file.Io_error _ -> ());
  Alcotest.(check bool) "no target file" false (Sys.file_exists path);
  Alcotest.(check bool) "no temp file" true
    (E9_bits.Atomic_file.leftovers path = []);
  (* A subsequent clean write over the same path parses back. *)
  Elf_file.write_file elf path;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.(check bool) "no temp after success" true
        (E9_bits.Atomic_file.leftovers path = []);
      Alcotest.(check int) "entry" 0x400000 (Elf_file.read_file path).Elf_file.entry)

let test_write_replaces_existing () =
  (* The rename-over pattern must atomically replace an existing file,
     not append or fail. *)
  let elf = mk_exec () in
  let path = Filename.temp_file "e9test" ".elf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "stale garbage");
      Elf_file.write_file elf path;
      Alcotest.(check int) "replaced" 0x400000
        (Elf_file.read_file path).Elf_file.entry)

(* ------------------------------------------------------------------ *)
(* Stripped images                                                     *)
(* ------------------------------------------------------------------ *)

let expect_malformed name f =
  match f () with
  | (_ : Elf_file.t) -> Alcotest.failf "%s: expected Malformed" name
  | exception Elf_file.Malformed _ -> ()

(* A fully stripped serialization must still parse: no section table,
   segments intact, and — since nothing marks where the content ends —
   the whole image kept as content. *)
let test_stripped_roundtrip () =
  let elf = mk_exec () in
  ignore
    (Elf_file.add_section elf ~name:".text" ~addr:0x400000 ~sh_type:1
       ~sh_flags:6 ~content:(Bytes.of_string "abc"));
  let b = Elf_file.to_bytes_stripped elf in
  (* The stripped header really advertises no table at all. *)
  Alcotest.(check int) "e_shnum zeroed" 0 (Bytes.get_uint16_le b 60);
  Alcotest.(check int) "e_shentsize zeroed" 0 (Bytes.get_uint16_le b 58);
  Alcotest.(check int) "e_shstrndx zeroed" 0 (Bytes.get_uint16_le b 62);
  Alcotest.(check int64) "e_shoff zeroed" 0L (Bytes.get_int64_le b 40);
  let parsed = Elf_file.of_bytes b in
  Alcotest.(check int) "no sections survive" 0
    (List.length parsed.Elf_file.sections);
  Alcotest.(check int) "segments survive" 1
    (List.length parsed.Elf_file.segments);
  Alcotest.(check int) "entry survives" 0x400000 parsed.Elf_file.entry;
  let seg = List.hd parsed.Elf_file.segments in
  Alcotest.(check string)
    "segment content survives" "\x90\x90\xc3"
    (Bytes.to_string
       (Buf.sub parsed.Elf_file.data ~pos:seg.Elf_file.offset
          ~len:seg.Elf_file.filesz));
  Alcotest.(check int) "whole image kept as content" (Bytes.length b)
    (Buf.length parsed.Elf_file.data)

(* shnum = 0 with a nonzero e_shoff is ambiguous — there is no table to
   cut the content at, but the header claims one exists somewhere. The
   parser must refuse with a typed error rather than guess an extent. *)
let test_stripped_ambiguous_shoff () =
  let b = Elf_file.to_bytes_stripped (mk_exec ()) in
  Bytes.set_int64_le b 40 0x1000L;
  expect_malformed "shnum=0, shoff<>0" (fun () -> Elf_file.of_bytes b)

let test_shstrndx_out_of_range () =
  let b = Elf_file.to_bytes (mk_exec ()) in
  let shnum = Bytes.get_uint16_le b 60 in
  Bytes.set_uint16_le b 62 (shnum + 5);
  expect_malformed "shstrndx beyond table" (fun () -> Elf_file.of_bytes b)

let suites =
  [ ( "elf",
      [ Alcotest.test_case "header roundtrip" `Quick test_roundtrip_header;
        Alcotest.test_case "segment content" `Quick
          test_roundtrip_segment_content;
        Alcotest.test_case "alignment congruence" `Quick
          test_segment_alignment_congruence;
        Alcotest.test_case "roundtrip fixed point" `Quick
          test_roundtrip_fixed_point;
        Alcotest.test_case "sections roundtrip" `Quick test_sections_roundtrip;
        Alcotest.test_case "segment_at" `Quick test_segment_at;
        Alcotest.test_case "bss memsz" `Quick test_bss_memsz;
        Alcotest.test_case "rejects garbage" `Quick test_reject_garbage;
        Alcotest.test_case "loadmap mappings" `Quick test_loadmap_mappings;
        Alcotest.test_case "loadmap traps" `Quick test_loadmap_traps;
        Alcotest.test_case "serialized_size" `Quick test_serialized_size;
        Alcotest.test_case "copy independent" `Quick test_copy_independent;
        Alcotest.test_case "file io" `Quick test_file_io;
        Alcotest.test_case "faulted write is atomic" `Quick
          test_write_atomic_on_fault;
        Alcotest.test_case "write replaces existing" `Quick
          test_write_replaces_existing;
        Alcotest.test_case "stripped roundtrip" `Quick test_stripped_roundtrip;
        Alcotest.test_case "stripped ambiguous shoff" `Quick
          test_stripped_ambiguous_shoff;
        Alcotest.test_case "shstrndx out of range" `Quick
          test_shstrndx_out_of_range ] );
    ( "elf.malformed",
      [ Alcotest.test_case "truncated header" `Quick
          test_malformed_truncated_header;
        Alcotest.test_case "zero-sized phdr entries" `Quick
          test_malformed_zero_phentsize;
        Alcotest.test_case "alien shdr entries" `Quick
          test_malformed_alien_shentsize;
        Alcotest.test_case "truncated program headers" `Quick
          test_malformed_truncated_phdrs;
        Alcotest.test_case "truncated section headers" `Quick
          test_malformed_truncated_shdrs;
        Alcotest.test_case "PT_LOAD outside image" `Quick
          test_malformed_load_outside_image;
        Alcotest.test_case "memsz < filesz" `Quick test_malformed_memsz_lt_filesz;
        Alcotest.test_case "overlapping PT_LOAD" `Quick
          test_malformed_overlapping_loads;
        Alcotest.test_case "tablemeta defects" `Quick test_malformed_tablemeta;
        Alcotest.test_case "loadmap ragged records" `Quick
          test_malformed_loadmap ] ) ]
