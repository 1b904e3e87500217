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

(* An injected decode failure is modeled as a linear sweep that stops
   early: the site list is truncated at the first instruction whose text
   offset reaches the cut. A strict prefix of the true decode is exactly
   the partial-disassembly contract the rewriter already honors (§2.2):
   fewer instrumented sites, never incorrect ones. *)
let apply_decode_cut fault decoded =
  match Fault.decode_cut fault with
  | None -> decoded
  | Some cut ->
      let kept = List.filter (fun (off, _) -> off < cut) decoded in
      if List.compare_lengths kept decoded < 0 then
        Fault.record_fire fault Fault.Decode;
      kept

let disassemble ?from ?(holes = []) ?(fault = Fault.none) elf =
  match find_text elf with
  | None -> error "Frontend: no text section or executable segment"
  | Some text ->
      (* [from] is the "ChromeMain workaround" (paper §6.2): when the text
         section mixes data and code, start the linear sweep at a known
         code address and leave the prefix untouched — a leading hole
         [[base, from)]. *)
      let start =
        match from with
        | None -> 0
        | Some addr ->
            if addr < text.base || addr >= text.base + text.size then
              error "Frontend: disassembly start 0x%x outside the text \
                     [0x%x, 0x%x)"
                addr text.base (text.base + text.size)
            else addr - text.base
      in
      let bytes = Buf.sub elf.Elf_file.data ~pos:text.offset ~len:text.size in
      (* The workaround generalized past a leading pool: any sweep position
         inside a hole — including one reached by a decode that overran
         into it — resumes at the hole's end, so the sweep is
         self-correcting at both edges. *)
      let hole_at p =
        let addr = text.base + p in
        List.find_opt (fun (a, l) -> addr >= a && addr < a + l) holes
      in
      let rec go p acc =
        if p >= text.size then List.rev acc
        else
          match hole_at p with
          | Some (a, l) -> go (a + l - text.base) acc
          | None ->
              let d = Decode.decode bytes p in
              go (p + d.Decode.len) ((p, d) :: acc)
      in
      let decoded = apply_decode_cut fault (go start []) in
      let sites =
        List.map
          (fun (off, d) ->
            { addr = text.base + off; len = d.Decode.len; insn = d.Decode.insn })
          decoded
      in
      (text, sites)

let select_jumps site = Classify.is_jump site.insn
let select_heap_writes site = Classify.is_heap_write site.insn

let disassemble_recursive elf =
  match find_text elf with
  | None -> error "Frontend: no text section or executable segment"
  | Some text ->
      let bytes = Buf.sub elf.Elf_file.data ~pos:text.offset ~len:text.size in
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
        let d = Decode.decode bytes (addr - text.base) in
        let site = { addr; len = d.Decode.len; insn = d.Decode.insn } in
        sites := site :: !sites;
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
      let sites =
        List.sort (fun a b -> compare a.addr b.addr) !sites
      in
      (text, sites)
