(* cold-patch: what `e9patch_cli patch` does — rewrite a binary the
   program has never seen and serialize the result. Rewrite time against
   text size is the paper's scalability claim, so the inputs span three
   text sizes, each under both of the paper's applications (A1: every
   jump, A2: every heap write) with empty trampolines. Nothing is cached
   between ops; the verifier, emulator and daemon stay out of the timed
   loop and check the outputs afterwards. *)

open Call

(* (text size class, functions) *)
let size_classes = [ ("64k", 250); ("256k", 1000); ("1m", 4000) ]
let apps = [ ("A1", Frontend.select_jumps); ("A2", Frontend.select_heap_writes) ]

(* Static.verify is quadratic today; past 256 KB it would dominate the
   run, so the larger outputs are checked by the trace oracle alone. *)
let statically_verified = [ "64k"; "256k" ]

type slot = {
  cls : string;
  app : string;
  elf : Elf_file.t;
  select : Frontend.site -> bool;
  mutable first : (Rewriter.result * string) option;
      (** the first pass's result and output digest *)
}

let label s = s.cls ^ "." ^ s.app

let op s () =
  let r = rewrite s.elf ~select:s.select in
  let bytes = to_bytes r.Rewriter.output in
  let digest = E9_bits.Fnv.hex bytes ~pos:0 ~len:(Bytes.length bytes) in
  match s.first with
  | None -> s.first <- Some (r, digest)
  | Some (_, d) ->
      if d <> digest then failwith "output bytes differ from the first pass"

let finish slots ~trace =
  let failures = ref [] in
  let fail s what = failures := Printf.sprintf "%s: %s" (label s) what :: !failures in
  let results =
    List.filter_map
      (fun s ->
        match s.first with
        | Some (r, _) -> Some (s, r)
        | None ->
            fail s "never succeeded";
            None)
      slots
  in
  List.iter
    (fun (s, (r : Rewriter.result)) ->
      if List.mem s.cls statically_verified then
        Option.iter (fun e -> fail s ("static: " ^ e))
          (verdict (Static.verify ~original:s.elf r.Rewriter.output));
      match Trace.compare_runs ~original:s.elf r.Rewriter.output with
      | Ok _ -> ()
      | Error m -> fail s ("trace: " ^ m))
    results;
  (* The rewrite is a function of its input alone: two domains give the
     same bytes as one. *)
  (match List.find_opt (fun (s, _) -> s.cls = "256k" && s.app = "A1") results with
  | Some (s, (r : Rewriter.result)) ->
      let r2 = Rewriter.run ~jobs:2 s.elf ~select:s.select ~template:empty in
      if not
           (Bytes.equal
              (Elf_file.to_bytes r.Rewriter.output)
              (Elf_file.to_bytes r2.Rewriter.output))
      then fail s "jobs 2 output differs from jobs 1"
  | None -> ());
  let cycles =
    List.filter_map
      (fun (s, (r : Rewriter.result)) ->
        match cycles ~original:s.elf r.Rewriter.output with
        | c -> Some c
        | exception Failure m ->
            fail s m;
            None)
      results
  in
  { Work.failures = !failures;
    patched =
      List.fold_left (fun acc (_, r) -> acc + Stats.succeeded r.Rewriter.stats) 0 results;
    selected =
      List.fold_left (fun acc (_, r) -> acc + Stats.total r.Rewriter.stats) 0 results;
    sizes = List.map (fun (_, r) -> Call.sizes r) results;
    cycles;
    serial_ref_s =
      (if trace then
         List.fold_left
           (fun acc s -> acc +. serial_search s.elf ~select:s.select ~template:empty)
           0.0 slots
       else 0.0) }

let generate seed =
  let inputs =
    List.mapi
      (fun i (cls, functions) ->
        (cls, generate ~seed ~salt:(100 + i) ~functions ~iterations:1))
      size_classes
  in
  fun () ->
    (* Set-up is a warm-up op per application on the smallest input. *)
    let _, elf0 = List.hd inputs in
    List.iter
      (fun (_, select) ->
        ignore (Elf_file.to_bytes (Rewriter.run elf0 ~select ~template:empty).Rewriter.output))
      apps;
    let slots =
      List.concat_map
        (fun (cls, elf) ->
          List.map (fun (app, select) -> { cls; app; elf; select; first = None }) apps)
        inputs
    in
    { Work.steps =
        Array.of_list (List.map (fun s -> Work.Op { label = label s; run = op s }) slots);
      finish = finish slots }

let workload = { Work.name = "cold-patch"; passes = 2; generate }
