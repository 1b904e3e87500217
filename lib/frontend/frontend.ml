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

(* The end of the hole holding [addr], or [-1] when no hole holds it. *)
let rec hole_end addr = function
  | [] -> -1
  | (a, l) :: rest ->
      if addr >= a && addr < a + l then a + l else hole_end addr rest

let fold ?(holes = []) ?(fault = Fault.none) elf ~init f =
  match find_text elf with
  | None -> no_text ()
  | Some text ->
      let bytes = Buf.sub elf.Elf_file.data ~pos:text.offset ~len:text.size in
      (* An injected decode failure is a sweep that stops early, at the
         first instruction whose text offset reaches the cut: a strict
         prefix of the true decode is exactly the partial-disassembly
         contract the rewriter already honors (§2.2) — fewer
         instrumented sites, never incorrect ones. The fault counts as
         fired only when an instruction was dropped. *)
      let cut = Option.value (Fault.decode_cut fault) ~default:max_int in
      (* Any sweep position inside a hole — including one reached by a
         decode that overran into it — resumes at the hole's end, so the
         sweep is self-correcting at both edges. *)
      let rec go p acc =
        if p >= text.size then acc
        else
          let e = hole_end (text.base + p) holes in
          if e >= 0 then go (e - text.base) acc
          else if p >= cut then begin
            Fault.record_fire fault Fault.Decode;
            acc
          end
          else
            let d = Decode.decode bytes p in
            go (p + d.Decode.len)
              (f acc
                 { addr = text.base + p; len = d.Decode.len;
                   insn = d.Decode.insn })
      in
      (text, go 0 (init text))

let disassemble ?holes ?fault elf =
  let text, rev =
    fold ?holes ?fault elf ~init:(fun _ -> []) (fun acc s -> s :: acc)
  in
  (text, List.rev rev)

let select_jumps site = Classify.is_jump site.insn
let select_heap_writes site = Classify.is_heap_write site.insn

let disassemble_recursive elf =
  match find_text elf with
  | None -> no_text ()
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
