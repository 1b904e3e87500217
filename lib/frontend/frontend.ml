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

(* Chunked parallel linear sweep. Chunk boundaries are fixed (independent
   of the worker count): each chunk is decoded linearly from its own
   start, overrunning its end by at most one instruction; the serial
   stitch below reconciles the overruns. Decoding is a pure function of
   [(bytes, position)], so whenever the stitch reaches a position a chunk
   also decoded from, the remainders coincide — the result is exactly the
   single serial sweep, for every [jobs] value. *)
let default_chunk = 1 lsl 16

let linear_chunked ~jobs ~chunk bytes ~pos ~len =
  let hi = pos + len in
  let n = (len + chunk - 1) / chunk in
  let bounds =
    List.init n (fun i -> (pos + (i * chunk), min hi (pos + ((i + 1) * chunk))))
  in
  let decoded =
    E9_bits.Pool.map ~domains:jobs
      (fun (clo, chi) ->
        let rec go p acc =
          if p >= chi then (List.rev acc, p)
          else
            let d = Decode.decode bytes p in
            go (p + d.Decode.len) ((p, d) :: acc)
        in
        go clo [])
      bounds
  in
  (* Stitch: walk the chunks carrying the serial stream position [p].
     Entering a chunk at its start adopts its decode wholesale; entering
     mid-chunk (the previous chunk overran) re-decodes one instruction at
     a time until [p] lands on a position the chunk decoded, then adopts
     the rest. [acc] holds emitted (position, decoded) pairs in reverse. *)
  let rec walk p chunks acc =
    match chunks with
    | [] -> List.rev acc
    | ((clo, chi), (sites, cend)) :: rest ->
        if p >= chi then walk p rest acc
        else if p = clo then walk cend rest (List.rev_append sites acc)
        else begin
          let rec sync p sites acc =
            match sites with
            | (off, _) :: tail when off < p -> sync p tail acc
            | (off, _) :: _ when off = p -> (cend, List.rev_append sites acc)
            | _ ->
                if p >= chi then (p, acc)
                else
                  let d = Decode.decode bytes p in
                  sync (p + d.Decode.len) sites ((p, d) :: acc)
          in
          let p, acc = sync p sites acc in
          walk p rest acc
        end
  in
  walk pos (List.combine bounds decoded) []

(* An injected decode failure is modeled as a linear sweep that stops
   early: the site list is truncated at the first instruction whose text
   offset reaches the cut. A strict prefix of the true decode is exactly
   the partial-disassembly contract the rewriter already honors (§2.2):
   fewer instrumented sites, never incorrect ones — and the same prefix
   is produced by the serial and chunked sweeps, preserving
   jobs-invariance under faults. *)
let apply_decode_cut fault decoded =
  match Fault.decode_cut fault with
  | None -> decoded
  | Some cut ->
      let kept = List.filter (fun (off, _) -> off < cut) decoded in
      if List.compare_lengths kept decoded < 0 then
        Fault.record_fire fault Fault.Decode;
      kept

let disassemble ?from ?(jobs = 1) ?(chunk = default_chunk)
    ?(fault = Fault.none) elf =
  match find_text elf with
  | None -> error "Frontend: no text section or executable segment"
  | Some text ->
      (* [from] is the "ChromeMain workaround" (paper §6.2): when the text
         section mixes data and code, start the linear sweep at a known
         code address and leave the prefix untouched. *)
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
      let len = text.size - start in
      let decoded =
        if jobs <= 1 || len <= chunk then Decode.linear bytes ~pos:start ~len
        else linear_chunked ~jobs ~chunk bytes ~pos:start ~len
      in
      let decoded = apply_decode_cut fault decoded in
      let sites =
        List.map
          (fun (off, d) ->
            { addr = text.base + off; len = d.Decode.len; insn = d.Decode.insn })
          decoded
      in
      (text, sites)

(* The §6.2 workaround generalized past a leading pool: a linear sweep
   that hops over known interior data extents, re-synchronizing at each
   hole's end. Holes come from ground truth (symbols, metadata sections);
   any sweep position inside a hole — including one reached by a decode
   that overran into it — resumes at the hole's end, so the sweep is
   self-correcting at both edges. *)
let disassemble_excluding ~holes ?(fault = Fault.none) elf =
  match find_text elf with
  | None -> error "Frontend: no text section or executable segment"
  | Some text ->
      let bytes = Buf.sub elf.Elf_file.data ~pos:text.offset ~len:text.size in
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
      let decoded = apply_decode_cut fault (go 0 []) in
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
