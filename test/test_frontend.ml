(* Tests for the disassembler frontend: text location (section vs. segment
   fallback), the [?holes] sweep restriction and its [leading_hole] form,
   site geometry, and the two patch-location selectors. *)

module Insn = E9_x86.Insn
module Reg = E9_x86.Reg
module Codegen = E9_workload.Codegen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let elf () =
  Codegen.generate { Codegen.default_profile with Codegen.seed = 91L }

let test_find_text_prefers_section () =
  let elf = elf () in
  let text = Option.get (Frontend.find_text elf) in
  let sec = Option.get (Elf_file.find_section elf ".text") in
  check_int "base is .text addr" sec.Elf_file.addr text.Frontend.base;
  check_int "offset" sec.Elf_file.offset text.Frontend.offset;
  check_int "size" sec.Elf_file.size text.Frontend.size

(* Without a .text section, the first executable PT_LOAD stands in — the
   stripped-sections case the paper's threat model requires. *)
let test_find_text_segment_fallback () =
  let elf = elf () in
  let stripped =
    { elf with
      Elf_file.sections =
        List.filter
          (fun (s : Elf_file.section) -> s.Elf_file.name <> ".text")
          elf.Elf_file.sections }
  in
  let text = Option.get (Frontend.find_text stripped) in
  let seg =
    List.find
      (fun (s : Elf_file.segment) ->
        s.Elf_file.ptype = Elf_file.Load && s.Elf_file.prot.Elf_file.x)
      stripped.Elf_file.segments
  in
  check_int "base is exec segment" seg.Elf_file.vaddr text.Frontend.base;
  check_int "size is filesz" seg.Elf_file.filesz text.Frontend.size

let test_find_text_none () =
  let elf = elf () in
  let none =
    { elf with
      Elf_file.sections =
        List.filter
          (fun (s : Elf_file.section) -> s.Elf_file.name <> ".text")
          elf.Elf_file.sections;
      segments =
        List.map
          (fun (s : Elf_file.segment) ->
            { s with Elf_file.prot = Elf_file.prot_rw })
          elf.Elf_file.segments }
  in
  check_bool "no text found" true (Frontend.find_text none = None)

let test_disassemble_covers_text () =
  let elf = elf () in
  let text, sites = Frontend.disassemble elf in
  check_bool "non-empty" true (sites <> []);
  let first = List.hd sites in
  check_int "starts at text base" text.Frontend.base first.Frontend.addr;
  let last_end =
    List.fold_left
      (fun pos (s : Frontend.site) ->
        check_int "contiguous" pos s.Frontend.addr;
        check_bool "positive length" true (s.Frontend.len > 0);
        pos + s.Frontend.len)
      text.Frontend.base sites
  in
  check_int "covers the whole text" (text.Frontend.base + text.Frontend.size)
    last_end

(* [leading_hole] is the §6.2 workaround: the sweep skips the data prefix,
   decodes nothing below the start, and the suffix matches a full sweep
   restarted at the same boundary. *)
let test_leading_hole () =
  let elf = elf () in
  let text, sites = Frontend.disassemble elf in
  let from = (List.nth sites 4).Frontend.addr in
  let hole = Frontend.leading_hole elf from in
  check_bool "the hole is [base, from)" true
    (hole = (text.Frontend.base, from - text.Frontend.base));
  let _, suffix = Frontend.disassemble ~holes:[ hole ] elf in
  check_int "starts at from" from (List.hd suffix).Frontend.addr;
  check_bool "nothing decoded below from" true
    (List.for_all (fun (s : Frontend.site) -> s.Frontend.addr >= from) suffix);
  let expect =
    List.filter (fun (s : Frontend.site) -> s.Frontend.addr >= from) sites
  in
  check_bool "suffix of the full sweep" true (suffix = expect)

let test_leading_hole_outside () =
  let elf = elf () in
  let text = Option.get (Frontend.find_text elf) in
  let hi = text.Frontend.base + text.Frontend.size in
  List.iter
    (fun addr ->
      Alcotest.check_raises "start outside text"
        (Frontend.Error
           (Printf.sprintf
              "Frontend: disassembly start 0x%x outside the text [0x%x, 0x%x)"
              addr text.Frontend.base hi))
        (fun () -> ignore (Frontend.leading_hole elf addr)))
    [ text.Frontend.base - 1; hi ]

let test_disassemble_no_text_typed () =
  let elf = elf () in
  let no_text =
    { elf with
      Elf_file.sections =
        List.filter
          (fun (s : Elf_file.section) -> s.Elf_file.name <> ".text")
          elf.Elf_file.sections;
      segments =
        List.map
          (fun (s : Elf_file.segment) -> { s with Elf_file.prot = Elf_file.prot_r })
          elf.Elf_file.segments }
  in
  match Frontend.disassemble no_text with
  | _ -> Alcotest.fail "expected Frontend.Error"
  | exception Frontend.Error _ -> ()

(* An injected decode fault truncates the site list at a text offset: the
   result is a strict prefix of the fault-free sweep (partial
   instrumentation, never desync), and a hole before the cut only drops
   its own sites from it. *)
let test_disassemble_decode_fault_prefix () =
  let module Fault = E9_fault.Fault in
  let elf = elf () in
  let text, full = Frontend.disassemble elf in
  let cut = text.Frontend.size / 2 in
  let fault = Fault.create (Fault.parse (Printf.sprintf "decode@%d" cut)) in
  let _, cut_sites = Frontend.disassemble ~fault elf in
  check_bool "strict prefix" true
    (List.length cut_sites < List.length full);
  List.iteri
    (fun i (s : Frontend.site) ->
      check_bool "prefix element matches" true (s = List.nth full i);
      check_bool "below the cut" true (s.Frontend.addr < text.Frontend.base + cut))
    cut_sites;
  check_int "fault recorded" 1 (Fault.fired fault Fault.Decode);
  let fault2 = Fault.create (Fault.parse (Printf.sprintf "decode@%d" cut)) in
  let lo = (List.nth full 3).Frontend.addr
  and hi = (List.nth full 6).Frontend.addr in
  let _, cut_holed =
    Frontend.disassemble ~holes:[ (lo, hi - lo) ] ~fault:fault2 elf
  in
  let outside (s : Frontend.site) =
    s.Frontend.addr < lo || s.Frontend.addr >= hi
  in
  check_bool "hole drops only its own sites" true
    (cut_holed = List.filter outside cut_sites)

(* [?holes] skips interior data extents and re-synchronizes at each
   hole's end; a hole that starts mid-instruction also drops the
   instruction that overran into it. A leading hole [base, addr) starts
   the sweep at [addr], and it combines with an interior hole. *)
let test_disassemble_holes () =
  let elf = elf () in
  let text, sites = Frontend.disassemble elf in
  let base = text.Frontend.base in
  let addr i = (List.nth sites i).Frontend.addr in
  let lo = addr 10 and hi = addr 14 in
  let without ~lo ~hi =
    List.filter
      (fun (s : Frontend.site) -> s.Frontend.addr < lo || s.Frontend.addr >= hi)
  in
  let _, holed = Frontend.disassemble ~holes:[ (lo, hi - lo) ] elf in
  check_bool "aligned hole: the sweep minus the hole's sites" true
    (holed = without ~lo ~hi sites);
  (* A hole starting one byte into a multi-byte instruction below [hi]:
     that instruction's decode overruns into the hole, so the next
     position lies inside it and the sweep resumes at the hole's end. *)
  let wide =
    List.find
      (fun (s : Frontend.site) ->
        s.Frontend.len > 1 && s.Frontend.addr + s.Frontend.len < hi)
      sites
  in
  let mid = wide.Frontend.addr + 1 in
  let _, overrun = Frontend.disassemble ~holes:[ (mid, hi - mid) ] elf in
  check_bool "overrun: the sweep minus the hole's sites" true
    (overrun = without ~lo:(wide.Frontend.addr + wide.Frontend.len) ~hi sites);
  let _, leading =
    Frontend.disassemble ~holes:[ Frontend.leading_hole elf hi ] elf
  in
  check_bool "a leading hole: the sweep from its end" true
    (leading = without ~lo:base ~hi sites);
  let _, both =
    Frontend.disassemble
      ~holes:[ Frontend.leading_hole elf lo; (lo, hi - lo) ]
      elf
  in
  check_bool "two holes combine" true (both = leading)

let test_disassemble_empty_text () =
  let elf = elf () in
  let empty =
    { elf with
      Elf_file.sections =
        List.map
          (fun (s : Elf_file.section) ->
            if s.Elf_file.name = ".text" then { s with Elf_file.size = 0 }
            else s)
          elf.Elf_file.sections }
  in
  let text, sites = Frontend.disassemble empty in
  check_int "empty text" 0 text.Frontend.size;
  check_bool "no sites" true (sites = [])

(* The sweep's hole semantics, written as the plain scan it replaces:
   at every position, the first hole of the list (in list order) that
   holds it sends the sweep to that hole's end. *)
let scan_sweep ~holes elf =
  let text = Option.get (Frontend.find_text elf) in
  let bytes =
    E9_bits.Buf.sub elf.Elf_file.data ~pos:text.Frontend.offset
      ~len:text.Frontend.size
  in
  let rec hole_end addr = function
    | [] -> -1
    | (a, l) :: rest ->
        if addr >= a && addr < a + l then a + l else hole_end addr rest
  in
  let rec go p acc =
    if p >= text.Frontend.size then List.rev acc
    else
      let e = hole_end (text.Frontend.base + p) holes in
      if e >= 0 then go (e - text.Frontend.base) acc
      else
        let d = E9_x86.Decode.decode bytes p in
        go (p + d.E9_x86.Decode.len)
          ((text.Frontend.base + p, d.E9_x86.Decode.len) :: acc)
  in
  go 0 []

let starts sites =
  List.map (fun (s : Frontend.site) -> (s.Frontend.addr, s.Frontend.len)) sites

(* Holes in any order, overlapping, adjacent (a hole starting where the
   one before it in the list ends), empty, and reaching past either end
   of the text: the sorted cursor resumes where the list scan does. *)
let prop_holes_match_scan =
  let elf = elf () in
  let text = Option.get (Frontend.find_text elf) in
  let base = text.Frontend.base and size = text.Frontend.size in
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 12)
        (triple bool (int_range (-16) (size + 16)) (int_range 0 160)))
  in
  QCheck2.Test.make ~name:"hole cursor resumes where the list scan does"
    ~count:300 gen (fun spec ->
      let holes =
        List.rev
          (List.fold_left
             (fun acc (adjacent, off, len) ->
               match acc with
               | (a, l) :: _ when adjacent -> (a + l, len) :: acc
               | _ -> (base + off, len) :: acc)
             [] spec)
      in
      starts (snd (Frontend.disassemble ~holes elf)) = scan_sweep ~holes elf)

(* A 4,000-function input with an island in about every other block:
   some 20,000 holes. The sweep passes each hole once; a scan of the
   whole list per instruction took tens of seconds here. *)
let test_many_holes_sweep () =
  let elf =
    Codegen.generate
      { Codegen.default_profile with
        Codegen.functions = 4000; iterations = 1; island_bias = 0.5 }
  in
  let holes = Codegen.holes elf in
  check_bool "about 20,000 holes" true (List.length holes > 15_000);
  let t0 = Unix.gettimeofday () in
  let _, sites = Frontend.disassemble ~holes elf in
  let dt = Unix.gettimeofday () -. t0 in
  let in_hole = Hashtbl.create (List.length holes) in
  List.iter
    (fun (a, l) ->
      for x = a to a + l - 1 do
        Hashtbl.replace in_hole x ()
      done)
    holes;
  check_bool "no site inside a hole" true
    (List.for_all
       (fun (s : Frontend.site) -> not (Hashtbl.mem in_hole s.Frontend.addr))
       sites);
  if dt > 5.0 then
    Alcotest.failf "the sweep of %d holes took %.1f s" (List.length holes) dt

(* The index of a sweep records exactly the sweep's starts and lengths,
   and decoding any start again gives that site: over generated inputs
   with a leading pool, islands and, in some cases, a decode fault cut. *)
let prop_index_matches_sweep =
  let gen =
    QCheck2.Gen.(
      quad (int_range 1 10_000) (int_range 0 2) bool (opt (int_range 0 4096)))
  in
  QCheck2.Test.make ~name:"index: the sweep's lengths, decode_at its sites"
    ~count:25 gen (fun (seed, pool_kb, islands, cut) ->
      let elf =
        Codegen.generate
          { Codegen.default_profile with
            Codegen.seed = Int64.of_int seed; functions = 12;
            iterations = 1; data_in_text_kb = pool_kb;
            island_bias = (if islands then 0.3 else 0.0) }
      in
      let holes = Codegen.holes elf in
      let fault () =
        match cut with
        | None -> E9_fault.Fault.none
        | Some c ->
            E9_fault.Fault.create
              (E9_fault.Fault.parse (Printf.sprintf "decode@%d" c))
      in
      let text, sites = Frontend.disassemble ~holes ~fault:(fault ()) elf in
      let idx, count =
        Frontend.index_fold ~holes ~fault:(fault ()) elf ~init:0
          (fun n _ -> n + 1)
      in
      let lens = Hashtbl.create 1024 in
      List.iter
        (fun (s : Frontend.site) -> Hashtbl.replace lens s.Frontend.addr s.Frontend.len)
        sites;
      let base = text.Frontend.base in
      count = List.length sites
      && Frontend.index_text idx = text
      && List.for_all
           (fun a ->
             Frontend.length_at idx a
             = Option.value (Hashtbl.find_opt lens a) ~default:0)
           (List.init (text.Frontend.size + 2) (fun i -> base - 1 + i))
      && List.for_all
           (fun (s : Frontend.site) -> Frontend.decode_at idx s.Frontend.addr = s)
           sites
      && List.rev (Frontend.sites idx ~init:[] (fun acc s -> s :: acc)) = sites
      && Frontend.swept_holes idx
         = (if List.length sites < List.length (snd (Frontend.disassemble ~holes elf))
            then None
            else
              Some
                (List.sort compare (List.filter (fun (_, l) -> l > 0) holes))))

(* An image whose text is [text] at 0x401000, followed in the same
   segment by the bytes of another section, [tail]. *)
let text_then ~text ~tail =
  let base = 0x401000 in
  let elf = Elf_file.create ~etype:Elf_file.Exec ~entry:base in
  let off =
    Elf_file.add_section elf ~name:".text" ~addr:base ~sh_type:1 ~sh_flags:6
      ~content:text
  in
  let n = Bytes.length text + Bytes.length tail in
  ignore
    (Elf_file.add_section elf ~name:".rodata" ~addr:(base + Bytes.length text)
       ~sh_type:1 ~sh_flags:2 ~content:tail);
  elf.Elf_file.segments <-
    [ { Elf_file.ptype = Elf_file.Load; prot = Elf_file.prot_rx; vaddr = base;
        offset = off; filesz = n; memsz = n; align = 4096 } ];
  elf

(* The index, the oracle and the rewrite read the text where it lies in
   the image, never past its end: over random text bytes (biased to
   opcodes and prefixes that start long instructions) followed by random
   bytes of another section, the index's lengths and [decode_at] are
   those of decoding a copy of the text alone, and the rewrite and
   [Static.verify] (sweeping, and reading the rewrite's index) come out
   the same when every byte outside the text differs. [linear_sweep]
   takes an index swept over another image with the same text, and
   refuses it once one text byte differs. *)
let prop_reads_stop_at_text_end =
  (* The text holds none of the prefixes a padded jump may start with
     (REX.W, the segment overrides): left as a one-byte instruction in
     front of a patched one, such a byte reads to the verifier as the
     start of a padded jump there, and it refuses the rewrite, wherever
     it reads the bytes from. *)
  let pads = [ 0x48; 0x26; 0x2e; 0x36; 0x3e; 0x64; 0x65 ] in
  let random_bytes ?(avoid = []) len =
    QCheck2.Gen.(
      map
        (fun l ->
          Bytes.of_seq
            (List.to_seq
               (List.map
                  (fun b -> Char.chr (if List.mem b avoid then 0x90 else b))
                  l)))
        (list_size len
           (oneof
              [ oneofl
                  [ 0xe9; 0xeb; 0xe8; 0x0f; 0x84; 0x74; 0x66; 0x41; 0xf3;
                    0x89; 0x8b; 0xc7; 0x80; 0xff; 0xc3; 0x90 ];
                int_range 0 255 ])))
  in
  let gen =
    QCheck2.Gen.(
      triple
        (random_bytes ~avoid:pads (int_range 1 48))
        (random_bytes (int_range 1 16))
        nat)
  in
  let hex b =
    String.concat " "
      (List.map
         (fun c -> Printf.sprintf "%02x" (Char.code c))
         (List.of_seq (Bytes.to_seq b)))
  in
  let print (text, tail, k) =
    Printf.sprintf "text [%s] tail [%s] k %d" (hex text) (hex tail) k
  in
  QCheck2.Test.make ~name:"in-place reads stop at the text end" ~count:300
    ~print gen
    (fun (text, tail, k) ->
      let base = 0x401000 and n = Bytes.length text in
      let elf = text_then ~text ~tail in
      let rec sweep p acc =
        if p >= n then List.rev acc
        else
          let d = E9_x86.Decode.decode text p in
          sweep (p + d.E9_x86.Decode.len)
            ({ Frontend.addr = base + p; len = d.E9_x86.Decode.len;
               insn = d.E9_x86.Decode.insn }
            :: acc)
      in
      let sites = sweep 0 [] in
      let idx = Frontend.index elf in
      (* The same text with every other byte of the image changed: the
         header block before it, the section after it. *)
      let other =
        text_then ~text
          ~tail:(Bytes.map (fun c -> Char.chr (255 - Char.code c)) tail)
      in
      E9_bits.Buf.blit_in other.Elf_file.data ~pos:0 (Bytes.make 4096 '\255');
      let flipped = Bytes.copy text in
      Bytes.set flipped (k mod n)
        (Char.chr (Char.code (Bytes.get text (k mod n)) lxor 1));
      let outcome elf =
        match
          E9_core.Rewriter.run elf ~select:(fun _ -> true)
            ~template:(fun _ -> E9_core.Trampoline.Empty)
        with
        | exception e -> Error (Printexc.to_string e)
        | r ->
            let out = r.E9_core.Rewriter.output in
            let patched = E9_bits.Buf.sub out.Elf_file.data ~pos:4096 ~len:n in
            (* Whether the changed bytes are the copies' differences. *)
            let verify ?index () =
              E9_check.Static.verify ?index ~original:elf out
              |> Result.map (fun rep ->
                     List.map fst rep.E9_check.Static.classified
                     = List.filter_map
                         (fun i ->
                           if Bytes.get text i <> Bytes.get patched i then
                             Some (base + i)
                           else None)
                         (List.init n Fun.id)
                     && rep.E9_check.Static.changed_bytes
                        = List.length rep.E9_check.Static.classified)
            in
            Ok (patched, verify (), verify ~index:r.E9_core.Rewriter.index ())
      in
      let result = outcome elf in
      List.init n (fun i -> Frontend.length_at idx (base + i))
      = List.init n (fun i ->
            match List.find_opt (fun s -> s.Frontend.addr = base + i) sites with
            | Some s -> s.Frontend.len
            | None -> 0)
      && List.for_all
           (fun s -> Frontend.decode_at idx s.Frontend.addr = s)
           sites
      && List.rev (Frontend.sites idx ~init:[] (fun acc s -> s :: acc)) = sites
      && fst (Frontend.linear_sweep ~index:idx other) == idx
      && (match
            Frontend.linear_sweep ~index:idx (text_then ~text:flipped ~tail)
          with
         | _ -> false
         | exception Invalid_argument _ -> true)
      && (match result with
         | Ok (_, Ok true, Ok true) | Error _ -> true
         | Ok _ -> false)
      && result = outcome other)

let site insn = { Frontend.addr = 0x401000; len = 5; insn }

let test_select_jumps () =
  check_bool "jmp" true (Frontend.select_jumps (site (Insn.Jmp 10)));
  check_bool "jmp short" true
    (Frontend.select_jumps (site (Insn.Jmp_short 3)));
  check_bool "jcc" true (Frontend.select_jumps (site (Insn.Jcc (Insn.NE, 8))));
  check_bool "indirect jmp" true
    (Frontend.select_jumps (site (Insn.Jmp_ind (Insn.Reg Reg.RAX))));
  check_bool "call is not a jump" false
    (Frontend.select_jumps (site (Insn.Call 10)));
  check_bool "ret is not a jump" false (Frontend.select_jumps (site Insn.Ret));
  check_bool "mov is not a jump" false
    (Frontend.select_jumps
       (site (Insn.Mov (Insn.Q, Insn.Reg Reg.RAX, Insn.Imm 1))))

let test_select_heap_writes () =
  let store base =
    Insn.Mov (Insn.Q, Insn.Mem (Insn.mem ~base ()), Insn.Reg Reg.RDX)
  in
  check_bool "store through rdi" true
    (Frontend.select_heap_writes (site (store Reg.RDI)));
  check_bool "stack store excluded" false
    (Frontend.select_heap_writes (site (store Reg.RSP)));
  check_bool "load is not a write" false
    (Frontend.select_heap_writes
       (site (Insn.Mov (Insn.Q, Insn.Reg Reg.RDX, Insn.Mem (Insn.mem ~base:Reg.RDI ())))));
  check_bool "jump is not a write" false
    (Frontend.select_heap_writes (site (Insn.Jmp 10)))

let suites =
  [ ( "frontend",
      [ Alcotest.test_case "find_text prefers .text" `Quick
          test_find_text_prefers_section;
        Alcotest.test_case "find_text segment fallback" `Quick
          test_find_text_segment_fallback;
        Alcotest.test_case "find_text none" `Quick test_find_text_none;
        Alcotest.test_case "disassembly covers the text" `Quick
          test_disassemble_covers_text;
        Alcotest.test_case "leading_hole restricts the sweep" `Quick
          test_leading_hole;
        Alcotest.test_case "leading_hole outside text rejected" `Quick
          test_leading_hole_outside;
        Alcotest.test_case "no text is a typed error" `Quick
          test_disassemble_no_text_typed;
        Alcotest.test_case "decode fault truncates to a prefix" `Quick
          test_disassemble_decode_fault_prefix;
        Alcotest.test_case "holes are skipped, sweep resyncs" `Quick
          test_disassemble_holes;
        Alcotest.test_case "empty text" `Quick test_disassemble_empty_text;
        QCheck_alcotest.to_alcotest prop_holes_match_scan;
        Alcotest.test_case "20,000 holes: one pass over them" `Quick
          test_many_holes_sweep;
        QCheck_alcotest.to_alcotest prop_index_matches_sweep;
        QCheck_alcotest.to_alcotest prop_reads_stop_at_text_end;
        Alcotest.test_case "select_jumps" `Quick test_select_jumps;
        Alcotest.test_case "select_heap_writes" `Quick test_select_heap_writes
      ] ) ]
