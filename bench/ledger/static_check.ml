(* static-check: what `e9patch_cli check` does, and the gate the daemon
   runs before every emit — reach a verdict on an (original, rewritten)
   pair. Each op parses both files and verifies; no rewriting happens in
   the timed loop. The pairs are rewrites of two text sizes under both
   applications, one dense tool rewrite (every instruction patched), and
   four corrupted copies whose known verdict is reject: the two
   corruptions the verifier's own tests use. *)

open Call

type pair = {
  label : string;
  original : bytes;
  rewritten : bytes;
  accept : bool;  (** the known verdict *)
}

(* One bit of a patched jump's rel32 displacement, flipped: the jump no
   longer lands in a reserved trampoline region. *)
let flip_displacement (r : Rewriter.result) out =
  let text = Option.get (Frontend.find_text r.Rewriter.output) in
  let text_bytes = Bytes.sub out text.Frontend.offset text.Frontend.size in
  let addr, len =
    List.find_map
      (fun (addr, _) ->
        let d = E9_x86.Decode.decode text_bytes (addr - text.Frontend.base) in
        match d.E9_x86.Decode.insn with
        | E9_x86.Insn.Jmp _ -> Some (addr, d.E9_x86.Decode.len)
        | _ -> None)
      r.Rewriter.patched_sites
    |> Option.get
  in
  let b = Bytes.copy out in
  let off = text.Frontend.offset + (addr - text.Frontend.base) + len - 1 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  b

(* One text byte the rewrite left alone, changed. *)
let stray_byte ~original out =
  let text = Option.get (Frontend.find_text (Elf_file.of_bytes original)) in
  let rec first i =
    if Bytes.get out i = Bytes.get original i then i else first (i + 1)
  in
  let off = first text.Frontend.offset in
  let b = Bytes.copy out in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
  b

let op p () =
  let original = of_bytes p.original and rewritten = of_bytes p.rewritten in
  match (verdict (verify ~original rewritten), p.accept) with
  | None, false -> failwith "corrupted pair accepted"
  | Some e, true -> failwith ("sound pair rejected: " ^ e)
  | _ -> ()

type built = { pairs : pair list; sound : (Elf_file.t * Rewriter.result) list }

let build ~small ~inputs =
  let sound = ref [] and pairs = ref [] in
  let add label original accept rewritten =
    pairs := { label; original; rewritten; accept } :: !pairs
  in
  List.iter
    (fun (cls, original) ->
      let elf = Elf_file.of_bytes original in
      List.iter
        (fun (app, select) ->
          let r = Rewriter.run elf ~select ~template:empty in
          let out = Elf_file.to_bytes r.Rewriter.output in
          sound := (elf, r) :: !sound;
          let name = cls ^ "." ^ app in
          add name original true out;
          if app = "A1" then add (name ^ ".flipped") original false (flip_displacement r out)
          else add (name ^ ".stray") original false (stray_byte ~original out))
        Cold_patch.apps)
    inputs;
  (* The dense pair is rewritten from the augmented input as its file
     reads back ([tool --emit-augmented] writes it). Checked against that
     file, an output rewritten from the in-memory image Tool.run uses is
     rejected at this commit: a byte outside the text differs. *)
  let rt = Tool.inject small in
  let select, template = Tool.to_rewriter_args rt [ Tool.rule_of ~m:"all" ~p:"count" () ] in
  let original = Elf_file.to_bytes rt.Tool.augmented in
  let augmented = Elf_file.of_bytes original in
  let r = Rewriter.run augmented ~select ~template in
  sound := (augmented, r) :: !sound;
  add "tool.all-count" original true (Elf_file.to_bytes r.Rewriter.output);
  { pairs = List.rev !pairs; sound = List.rev !sound }

let finish built ~trace:_ =
  let failures = ref [] in
  let cycles =
    List.filter_map
      (fun (original, (r : Rewriter.result)) ->
        match cycles ~original r.Rewriter.output with
        | c -> Some c
        | exception Failure m ->
            failures := m :: !failures;
            None)
      built.sound
  in
  let rs = List.map snd built.sound in
  { Work.failures = !failures;
    patched = List.fold_left (fun acc r -> acc + Stats.succeeded r.Rewriter.stats) 0 rs;
    selected = List.fold_left (fun acc r -> acc + Stats.total r.Rewriter.stats) 0 rs;
    sizes = List.map sizes rs;
    cycles;
    serial_ref_s = 0.0 }

let generate seed =
  let inputs =
    List.mapi
      (fun i (cls, functions) ->
        (cls, generate_file ~seed ~salt:(200 + i) ~functions ~iterations:1))
      [ ("64k", 250); ("256k", 1000) ]
  in
  let small = generate ~seed ~salt:210 ~functions:60 ~iterations:1 in
  fun () ->
    (* Set-up builds every pair: the rewrites and their corruptions. *)
    let built = build ~small ~inputs in
    { Work.steps =
        Array.of_list
          (List.map
             (fun p -> Work.Op { label = p.label; run = op p })
             built.pairs);
      finish = finish built }

let workload = { Work.name = "static-check"; passes = 3; generate }
