type result = {
  blob : bytes;
  mappings : Loadmap.mapping list;
  physical_blocks : int;
  virtual_blocks : int;
}

let page_size = 4096

(* Whether [len] bytes of the byte map [occ] from [pos] are all free. *)
let is_free occ ~pos ~len =
  let rec go i = i >= pos + len || (Bytes.get occ i = '\000' && go (i + 1)) in
  go pos

let group ~granularity ~enabled trampolines =
  if granularity < 1 then invalid_arg "Pagegroup.group";
  let bsize = granularity * page_size in
  (* Split trampolines into per-virtual-block fragments ("trampolines that
     span block boundaries are treated as two mini-trampolines"). *)
  let frags = Hashtbl.create 256 in
  (* block base -> (rel offset, bytes) list *)
  List.iter
    (fun (addr, code) ->
      let len = Bytes.length code in
      let pos = ref 0 in
      while !pos < len do
        let a = addr + !pos in
        let block = a / bsize * bsize in
        let rel = a - block in
        let chunk = min (bsize - rel) (len - !pos) in
        let frag = (rel, Bytes.sub code !pos chunk) in
        Hashtbl.replace frags block
          (frag :: (Option.value ~default:[] (Hashtbl.find_opt frags block)));
        pos := !pos + chunk
      done)
    trampolines;
  let blocks =
    Hashtbl.fold (fun base fr acc -> (base, fr) :: acc) frags []
    |> List.sort compare
  in
  (* Physical blocks, oldest first: a byte map of the block-relative
     offsets already taken plus the content of each. There are never
     more physical blocks than virtual ones. *)
  let n_blocks = List.length blocks in
  let occ = Array.make n_blocks Bytes.empty in
  let content = Array.make n_blocks Bytes.empty in
  let n_phys = ref 0 in
  let place fr =
    let fits i =
      List.for_all
        (fun (rel, b) -> is_free occ.(i) ~pos:rel ~len:(Bytes.length b))
        fr
    in
    (* First fit; [!n_phys] is a new block. *)
    let rec first i = if i >= !n_phys || fits i then i else first (i + 1) in
    let i = if enabled then first 0 else !n_phys in
    if i = !n_phys then begin
      occ.(i) <- Bytes.make bsize '\000';
      content.(i) <- Bytes.make bsize '\000';
      incr n_phys
    end;
    List.iter
      (fun (rel, b) ->
        Bytes.fill occ.(i) rel (Bytes.length b) '\001';
        Bytes.blit b 0 content.(i) rel (Bytes.length b))
      fr;
    i
  in
  let placements = List.map (fun (base, fr) -> (base, place fr)) blocks in
  let mappings =
    List.map
      (fun (vbase, pidx) ->
        { Loadmap.vaddr = vbase;
          file_off = pidx * bsize;
          len = bsize;
          prot = Elf_file.prot_rx })
      placements
  in
  (* Merge mappings that are contiguous in both spaces (fewer mmap calls). *)
  let mappings =
    List.fold_left
      (fun acc (m : Loadmap.mapping) ->
        match acc with
        | prev :: rest
          when prev.Loadmap.vaddr + prev.Loadmap.len = m.vaddr
               && prev.Loadmap.file_off + prev.Loadmap.len = m.file_off ->
            { prev with Loadmap.len = prev.Loadmap.len + m.len } :: rest
        | _ -> m :: acc)
      [] mappings
    |> List.rev
  in
  { blob =
      Bytes.concat Bytes.empty (Array.to_list (Array.sub content 0 !n_phys));
    mappings;
    physical_blocks = !n_phys;
    virtual_blocks = n_blocks }
