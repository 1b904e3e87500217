module Buf = E9_bits.Buf
module Decode = E9_x86.Decode
module Classify = E9_x86.Classify
module Fault = E9_fault.Fault

type site = { addr : int; len : int; insn : E9_x86.Insn.t }
type text = { base : int; offset : int; size : int }

exception Error of string

let error fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

let find_text (elf : Elf_file.t) =
  match Elf_file.find_section elf ".text" with
  | Some s -> Some { base = s.addr; offset = s.offset; size = s.size }
  | None ->
      List.find_opt
        (fun (s : Elf_file.segment) -> s.ptype = Elf_file.Load && s.prot.x)
        elf.segments
      |> Option.map (fun (s : Elf_file.segment) ->
             { base = s.vaddr; offset = s.offset; size = s.filesz })

let no_text () = error "Frontend: no text section or executable segment"

(* The "ChromeMain workaround" (paper §6.2): when the text section mixes
   data and code, the sweep starts at a known code address and leaves the
   prefix untouched, i.e. behind one leading hole [[base, addr)]. *)
let leading_hole elf addr =
  match find_text elf with
  | None -> no_text ()
  | Some text ->
      if addr < text.base || addr >= text.base + text.size then
        error
          "Frontend: disassembly start 0x%x outside the text [0x%x, 0x%x)"
          addr text.base (text.base + text.size)
      else (text.base, addr - text.base)

(* ------------------------------------------------------------------ *)
(* The text index                                                      *)
(* ------------------------------------------------------------------ *)

(* One length byte per text byte (0: no instruction starts there), the
   storage holding the original bytes at [itext.offset] (the swept
   image's, borrowed), from which any instruction is decoded again, and
   the sorted holes of a full linear sweep ([None] if cut or foreign). *)
type index = {
  itext : text;
  lens : Bytes.t;
  code : Bytes.t;
  swept : (int * int) list option;
}

(* The instruction at text offset [i], decoded as from a copy of the
   text alone: no byte past its end is read. *)
let decode_in text code i =
  Decode.decode ~limit:(text.offset + text.size) code (text.offset + i)

let sorted_holes holes =
  List.filter (fun (_, l) -> l > 0) holes
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The holes as one cursor over their starts. The sweep position only
   grows, so a hole that ends at or below it can never hold a later
   position and is passed for good; the first hole left holds [addr]
   iff it starts at or below it. Each hole is passed once, however many
   instructions the sweep decodes, and overlapping or adjacent holes
   resume at their union's end in any order, as one scan of the list
   per position would. *)
let hole_cursor sorted =
  let sorted = Array.of_list sorted in
  let n = Array.length sorted and i = ref 0 in
  (* The end of a hole holding [addr], or [-1] when no hole holds it;
     [addr] must not decrease from one call to the next. *)
  fun addr ->
    while !i < n && fst sorted.(!i) + snd sorted.(!i) <= addr do
      incr i
    done;
    if !i < n && fst sorted.(!i) <= addr then fst sorted.(!i) + snd sorted.(!i)
    else -1

let index_fold ?(holes = []) ?(fault = Fault.none) elf ~init f =
  match find_text elf with
  | None -> no_text ()
  | Some text ->
      let code = Buf.borrow elf.Elf_file.data ~pos:text.offset ~len:text.size in
      let lens = Bytes.make text.size '\000' in
      (* An injected decode failure is a sweep that stops early, at the
         first instruction whose text offset reaches the cut: a strict
         prefix of the true decode is exactly the partial-disassembly
         contract the rewriter already honors (§2.2) — fewer
         instrumented sites, never incorrect ones. The fault counts as
         fired only when an instruction was dropped. *)
      let cut = Option.value (Fault.decode_cut fault) ~default:max_int in
      let holes = sorted_holes holes in
      let hole_end = hole_cursor holes in
      (* Any sweep position inside a hole — including one reached by a
         decode that overran into it — resumes at the hole's end, so the
         sweep is self-correcting at both edges. *)
      let rec go p acc =
        if p >= text.size then (true, acc)
        else
          let e = hole_end (text.base + p) in
          if e >= 0 then go (e - text.base) acc
          else if p >= cut then begin
            Fault.record_fire fault Fault.Decode;
            (false, acc)
          end
          else
            let d = decode_in text code p in
            Bytes.set lens p (Char.chr d.Decode.len);
            go (p + d.Decode.len)
              (f acc
                 { addr = text.base + p; len = d.Decode.len;
                   insn = d.Decode.insn })
      in
      let whole, acc = go 0 init in
      ( { itext = text; lens; code; swept = (if whole then Some holes else None) },
        acc )

let index ?holes ?fault elf =
  fst (index_fold ?holes ?fault elf ~init:() (fun () _ -> ()))

let disassemble ?holes ?fault elf =
  let idx, rev = index_fold ?holes ?fault elf ~init:[] (fun acc s -> s :: acc) in
  (idx.itext, List.rev rev)

let index_of_sites text code sites =
  if text.offset < 0 || text.offset + text.size > Bytes.length code then
    error "Frontend: the code bytes end before the text [0x%x, 0x%x)"
      text.base (text.base + text.size);
  let lens = Bytes.make text.size '\000' in
  List.iter
    (fun s ->
      let i = s.addr - text.base in
      if i < 0 || i >= text.size then
        error "Frontend: site 0x%x lies outside the text [0x%x, 0x%x)" s.addr
          text.base (text.base + text.size)
      else if s.len < 1 || s.len > 255 then
        error "Frontend: site 0x%x has length %d" s.addr s.len
      else Bytes.set lens i (Char.chr s.len))
    sites;
  { itext = text; lens; code; swept = None }

let index_text idx = idx.itext
let swept_holes idx = idx.swept

let length_at idx addr =
  let i = addr - idx.itext.base in
  if i < 0 || i >= idx.itext.size then 0 else Char.code (Bytes.get idx.lens i)

let decode_at idx addr =
  let len = length_at idx addr in
  if len = 0 then error "Frontend: no instruction starts at 0x%x" addr;
  let d = decode_in idx.itext idx.code (addr - idx.itext.base) in
  if d.Decode.len <> len then
    error
      "Frontend: the instruction at 0x%x decodes to %d bytes, the frontend \
       reported %d"
      addr d.Decode.len len;
  { addr; len; insn = d.Decode.insn }

let sites idx ~init f =
  let acc = ref init in
  Bytes.iteri
    (fun i c ->
      if c <> '\000' then
        acc :=
          f !acc
            { addr = idx.itext.base + i; len = Char.code c;
              insn = (decode_in idx.itext idx.code i).Decode.insn })
    idx.lens;
  !acc

let linear_sweep ?holes ?index:idx elf =
  match idx with
  | None ->
      let idx = index ?holes elf in
      (idx, Option.get idx.swept)
  | Some idx ->
      let refuse why = invalid_arg ("Frontend.linear_sweep: " ^ why) in
      let t = idx.itext in
      if find_text elf <> Some t then refuse "the index covers another text";
      (* The index swept this very image, or one with equal text. *)
      let code = Buf.borrow elf.Elf_file.data ~pos:t.offset ~len:t.size in
      let rec same i =
        i = t.offset + t.size
        || Bytes.unsafe_get code i = Bytes.unsafe_get idx.code i
           && same (i + 1)
      in
      if not (code == idx.code || same t.offset) then
        refuse "the index holds other code bytes";
      (match (idx.swept, holes) with
      | None, _ -> refuse "the index is not a full linear sweep"
      | Some swept, Some holes when sorted_holes holes <> swept ->
          refuse "the index was swept with other holes"
      | Some swept, _ -> (idx, swept))

let select_jumps site = Classify.is_jump site.insn
let select_heap_writes site = Classify.is_heap_write site.insn

let disassemble_recursive elf =
  match find_text elf with
  | None -> no_text ()
  | Some text ->
      let code = Buf.borrow elf.Elf_file.data ~pos:text.offset ~len:text.size in
      let seen = Hashtbl.create 4096 in
      let work = Queue.create () in
      let push addr =
        if
          addr >= text.base
          && addr < text.base + text.size
          && not (Hashtbl.mem seen addr)
        then begin
          Hashtbl.replace seen addr ();
          Queue.push addr work
        end
      in
      push elf.Elf_file.entry;
      let sites = ref [] in
      while not (Queue.is_empty work) do
        let addr = Queue.pop work in
        let d = decode_in text code (addr - text.base) in
        sites := { addr; len = d.Decode.len; insn = d.Decode.insn } :: !sites;
        let next = addr + d.Decode.len in
        (match Classify.branch_rel d.Decode.insn with
        | Some rel -> push (next + rel)
        | None -> ());
        (* Fall through unless control flow never returns here. An indirect
           jump or return ends the path; an indirect call falls through. *)
        match d.Decode.insn with
        | E9_x86.Insn.Jmp _ | E9_x86.Insn.Jmp_short _ | E9_x86.Insn.Jmp_ind _
        | E9_x86.Insn.Ret | E9_x86.Insn.Ud2 | E9_x86.Insn.Unknown _ ->
            ()
        | _ -> push next
      done;
      index_of_sites text code !sites
