(* Tests for the E9_bits substrate: buffers, interval sets, RNG, atomic
   file writes. *)

module Buf = E9_bits.Buf
module Iset = E9_bits.Iset
module Rng = E9_bits.Rng
module Pool = E9_bits.Pool
module Atomic_file = E9_bits.Atomic_file

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Buf                                                                 *)
(* ------------------------------------------------------------------ *)

let test_buf_roundtrip_widths () =
  let b = Buf.create 4 in
  let p8 = Buf.add_u8 b 0xab in
  let p16 = Buf.add_u16 b 0xbeef in
  let p32 = Buf.add_u32 b 0xdeadbeef in
  let p64 = Buf.add_u64 b 0x0123_4567_89ab_cdefL in
  check_int "u8" 0xab (Buf.get_u8 b p8);
  check_int "u16" 0xbeef (Buf.get_u16 b p16);
  check_int "u32" 0xdeadbeef (Buf.get_u32 b p32);
  Alcotest.(check int64) "u64" 0x0123_4567_89ab_cdefL (Buf.get_u64 b p64);
  check_int "len" 15 (Buf.length b)

let test_buf_little_endian () =
  let b = Buf.create 4 in
  ignore (Buf.add_u32 b 0x11223344);
  check_int "lsb first" 0x44 (Buf.get_u8 b 0);
  check_int "msb last" 0x11 (Buf.get_u8 b 3)

let test_buf_i32_sign () =
  let b = Buf.create 4 in
  ignore (Buf.add_u32 b (-5));
  check_int "i32 sign-extends" (-5) (Buf.get_i32 b 0);
  check_int "u32 wraps" 0xffff_fffb (Buf.get_u32 b 0)

let test_buf_grow () =
  let b = Buf.create 1 in
  for i = 0 to 999 do
    ignore (Buf.add_u8 b i)
  done;
  check_int "grown" 1000 (Buf.length b);
  check_int "content preserved" (999 land 0xff) (Buf.get_u8 b 999)

let test_buf_blit_sub () =
  let b = Buf.of_string "hello world" in
  Buf.blit_in b ~pos:6 (Bytes.of_string "WORLD");
  Alcotest.(check string)
    "blit" "WORLD"
    (Bytes.to_string (Buf.sub b ~pos:6 ~len:5))

let test_buf_pad_to () =
  let b = Buf.of_string "ab" in
  Buf.pad_to b 8;
  check_int "padded" 8 (Buf.length b);
  check_int "zero fill" 0 (Buf.get_u8 b 7);
  Buf.pad_to b 4;
  check_int "no shrink" 8 (Buf.length b)

let test_buf_bounds () =
  let b = Buf.of_string "abc" in
  Alcotest.check_raises "read past end"
    (Invalid_argument "Buf: range 2+2 out of bounds (len 3)") (fun () ->
      ignore (Buf.get_u16 b 2))

(* ------------------------------------------------------------------ *)
(* Iset                                                                *)
(* ------------------------------------------------------------------ *)

let test_iset_add_merge () =
  let s = Iset.create () in
  Iset.add s ~lo:10 ~hi:20;
  Iset.add s ~lo:30 ~hi:40;
  Iset.add s ~lo:20 ~hi:30;
  Alcotest.(check (list (pair int int)))
    "merged" [ (10, 40) ] (Iset.intervals s)

let test_iset_add_overlap () =
  let s = Iset.create () in
  Iset.add s ~lo:10 ~hi:20;
  Iset.add s ~lo:15 ~hi:35;
  Iset.add s ~lo:5 ~hi:12;
  Alcotest.(check (list (pair int int)))
    "merged" [ (5, 35) ] (Iset.intervals s)

let test_iset_mem () =
  let s = Iset.create () in
  Iset.add s ~lo:10 ~hi:20;
  check_bool "below" false (Iset.mem s 9);
  check_bool "lo inclusive" true (Iset.mem s 10);
  check_bool "inside" true (Iset.mem s 15);
  check_bool "hi exclusive" false (Iset.mem s 20)

let test_iset_remove_split () =
  let s = Iset.create () in
  Iset.add s ~lo:0 ~hi:100;
  Iset.remove s ~lo:40 ~hi:60;
  Alcotest.(check (list (pair int int)))
    "split" [ (0, 40); (60, 100) ] (Iset.intervals s);
  check_int "occupied" 80 (Iset.occupied s)

let test_iset_find_free () =
  let s = Iset.create () in
  Iset.add s ~lo:0 ~hi:10;
  Iset.add s ~lo:14 ~hi:30;
  Alcotest.(check (option int)) "gap of 4" (Some 10)
    (Iset.find_free s ~size:4 ~lo:0 ~hi:100);
  Alcotest.(check (option int)) "gap of 5 skips small gap" (Some 30)
    (Iset.find_free s ~size:5 ~lo:0 ~hi:100);
  Alcotest.(check (option int)) "window excludes" None
    (Iset.find_free s ~size:5 ~lo:0 ~hi:25);
  Alcotest.(check (option int)) "empty window" None
    (Iset.find_free s ~size:1 ~lo:50 ~hi:40)

let test_iset_find_free_last () =
  let s = Iset.create () in
  Iset.add s ~lo:20 ~hi:30;
  Alcotest.(check (option int)) "highest start" (Some 96)
    (Iset.find_free_last s ~size:4 ~lo:0 ~hi:96);
  Alcotest.(check (option int)) "slides below obstacle" (Some 16)
    (Iset.find_free_last s ~size:4 ~lo:0 ~hi:22)

let test_iset_copy_independent () =
  let s = Iset.create () in
  Iset.add s ~lo:0 ~hi:10;
  let c = Iset.copy s in
  Iset.add c ~lo:100 ~hi:110;
  check_int "original untouched" 10 (Iset.occupied s);
  check_int "copy extended" 20 (Iset.occupied c)

(* Property: find_free agrees with a naive boolean-array model, including
   returning the lowest viable start. *)
let prop_iset_matches_model =
  QCheck.Test.make ~name:"Iset.find_free agrees with naive model" ~count:500
    QCheck.(
      pair
        (small_list (pair (int_bound 200) (int_bound 30)))
        (triple (int_range 1 10) (int_bound 200) (int_bound 200)))
    (fun (adds, (size, lo, hi)) ->
      (* QCheck's int_range shrinker can escape its bounds; clamp. *)
      let size = max 1 size in
      let s = Iset.create () in
      let model = Array.make 300 false in
      List.iter
        (fun (start, len) ->
          Iset.add s ~lo:start ~hi:(start + len);
          for i = start to start + len - 1 do
            model.(i) <- true
          done)
        adds;
      let naive () =
        let result = ref None in
        (try
           for start = lo to hi do
             let ok = ref true in
             for i = start to start + size - 1 do
               if i < 300 && model.(i) then ok := false
             done;
             if !ok then begin
               result := Some start;
               raise Exit
             end
           done
         with Exit -> ());
        !result
      in
      Iset.find_free s ~size ~lo ~hi = naive ())

let prop_iset_find_free_last_valid =
  QCheck.Test.make ~name:"Iset.find_free_last returns free in-window range"
    ~count:500
    QCheck.(
      pair
        (small_list (pair (int_bound 200) (int_range 1 30)))
        (triple (int_range 1 10) (int_bound 200) (int_bound 200)))
    (fun (adds, (size, lo, hi)) ->
      let s = Iset.create () in
      List.iter
        (fun (start, len) -> Iset.add s ~lo:start ~hi:(start + len))
        adds;
      match Iset.find_free_last s ~size ~lo ~hi with
      | None -> true
      | Some start ->
          start >= lo && start <= hi
          && Iset.is_free s ~lo:start ~hi:(start + size))

(* Property: an arbitrary interleaving of add and remove leaves the set
   agreeing with a naive boolean-array model on every point query, on
   total occupancy, and on the interval count (the fragmentation gauge
   the obs layer reports). *)
let prop_iset_op_sequence_model =
  QCheck.Test.make ~name:"Iset add/remove/mem agree with naive model"
    ~count:400
    QCheck.(small_list (triple bool (int_bound 250) (int_range 1 20)))
    (fun ops ->
      let s = Iset.create () in
      let model = Array.make 300 false in
      List.iter
        (fun (is_add, lo, len) ->
          (* QCheck's int_range shrinker can escape its bounds; clamp. *)
          let len = max 1 (min len 20) in
          let hi = lo + len in
          if is_add then Iset.add s ~lo ~hi else Iset.remove s ~lo ~hi;
          Array.fill model lo len is_add)
        ops;
      let mem_agrees = ref true in
      for i = 0 to 299 do
        if Iset.mem s i <> model.(i) then mem_agrees := false
      done;
      let occupied = ref 0 and runs = ref 0 in
      Array.iteri
        (fun i v ->
          if v then begin
            incr occupied;
            if i = 0 || not model.(i - 1) then incr runs
          end)
        model;
      !mem_agrees && Iset.occupied s = !occupied && Iset.count s = !runs)

let prop_iset_add_remove_inverse =
  QCheck.Test.make ~name:"Iset.remove undoes add" ~count:300
    QCheck.(small_list (pair (int_bound 1000) (int_range 1 20)))
    (fun ranges ->
      let s = Iset.create () in
      List.iter (fun (lo, len) -> Iset.add s ~lo ~hi:(lo + len)) ranges;
      List.iter (fun (lo, len) -> Iset.remove s ~lo ~hi:(lo + len)) ranges;
      Iset.occupied s = 0)

(* Naive reference queries over a boolean occupancy array (true =
   occupied; indexes beyond the array are free). *)
let model_free model s size =
  let ok = ref true in
  for i = s to s + size - 1 do
    if i >= 0 && i < Array.length model && model.(i) then ok := false
  done;
  !ok

let model_find_free model ~size ~lo ~hi =
  let result = ref None in
  (try
     for s = lo to hi do
       if model_free model s size then begin
         result := Some s;
         raise Exit
       end
     done
   with Exit -> ());
  !result

let model_find_free_last model ~size ~lo ~hi =
  let result = ref None in
  (try
     for s = hi downto lo do
       if model_free model s size then begin
         result := Some s;
         raise Exit
       end
     done
   with Exit -> ());
  !result

let model_find_free_strided model ~size ~lo ~hi ~stride =
  let result = ref None in
  (try
     let s = ref lo in
     while !s <= hi do
       if model_free model !s size then begin
         result := Some !s;
         raise Exit
       end;
       s := !s + stride
     done
   with Exit -> ());
  !result

(* Property: after an arbitrary add/remove interleaving the augmented
   tree agrees with the naive model on every query the allocator issues —
   point membership, window freeness and all three find_free variants —
   for arbitrary windows, sizes and strides (the gap-descent structure is
   cross-checked against brute force, not trusted). *)
let prop_iset_queries_match_model =
  QCheck.Test.make
    ~name:"Iset queries agree with naive model (all find_free variants)"
    ~count:600
    QCheck.(
      pair
        (small_list (triple bool (int_bound 250) (int_range 1 25)))
        (quad (int_bound 12) (int_bound 280) (int_bound 280) (int_range 1 40)))
    (fun (ops, (size, lo, hi, stride)) ->
      (* QCheck's int_range shrinker can escape its bounds; clamp. *)
      let stride = max 1 stride in
      let s = Iset.create () in
      let model = Array.make 300 false in
      List.iter
        (fun (is_add, olo, len) ->
          let len = max 1 (min len 25) in
          if is_add then Iset.add s ~lo:olo ~hi:(olo + len)
          else Iset.remove s ~lo:olo ~hi:(olo + len);
          Array.fill model olo len is_add)
        ops;
      let free_agrees =
        Iset.is_free s ~lo ~hi
        = (hi <= lo || model_free model lo (hi - lo))
      in
      (* size = 0 must yield None from every variant, like the old scan. *)
      let zero_agrees =
        Iset.find_free s ~size:0 ~lo ~hi = None
        && Iset.find_free_last s ~size:0 ~lo ~hi = None
        && Iset.find_free_strided s ~size:0 ~lo ~hi ~stride = None
      in
      size = 0
      || (free_agrees && zero_agrees
         && Iset.find_free s ~size ~lo ~hi = model_find_free model ~size ~lo ~hi
         && Iset.find_free_last s ~size ~lo ~hi
            = model_find_free_last model ~size ~lo ~hi
         && Iset.find_free_strided s ~size ~lo ~hi ~stride
            = model_find_free_strided model ~size ~lo ~hi ~stride))

(* Non-power-of-two strides, specifically: a pow2 stride lets a masking
   bug in the gap-descent congruence arithmetic pass unnoticed (rounding
   to the stride and masking to it coincide), so this property pins the
   stride to primes and odd composites over a dense random comb and
   checks the full contract of a hit — in-window, congruent to [lo]
   modulo the stride, free, and minimal (the brute-force model finds
   nothing earlier). *)
let prop_iset_strided_non_pow2 =
  QCheck.Test.make
    ~name:"find_free_strided honors congruence/minimality at non-pow2 strides"
    ~count:500
    QCheck.(
      pair
        (small_list (triple (int_bound 400) (int_range 1 30) bool))
        (quad (int_range 1 15) (int_bound 380) (int_bound 380) (int_bound 7)))
    (fun (ops, (size, lo, hi, k)) ->
      let stride = [| 3; 5; 6; 7; 9; 11; 13; 24 |].(abs k mod 8) in
      let size = max 1 size in
      let s = Iset.create () in
      let model = Array.make 440 false in
      List.iter
        (fun (olo, len, is_add) ->
          let len = max 1 (min len 30) in
          if is_add then Iset.add s ~lo:olo ~hi:(olo + len)
          else Iset.remove s ~lo:olo ~hi:(olo + len);
          Array.fill model olo len is_add)
        ops;
      match Iset.find_free_strided s ~size ~lo ~hi ~stride with
      | None -> model_find_free_strided model ~size ~lo ~hi ~stride = None
      | Some r ->
          r >= lo && r <= hi
          && (r - lo) mod stride = 0
          && model_free model r size
          && model_find_free_strided model ~size ~lo ~hi ~stride = Some r)

(* Deterministic stride corners the property may not hit often enough:
   a stride wider than the window (only candidate is [lo]), and a blocker
   whose interval ends exactly at the window's last viable start. *)
let test_iset_stride_corners () =
  let s = Iset.create () in
  Iset.add s ~lo:10 ~hi:20;
  Alcotest.(check (option int))
    "stride > hi-lo, lo free" (Some 0)
    (Iset.find_free_strided s ~size:4 ~lo:0 ~hi:5 ~stride:100);
  Alcotest.(check (option int))
    "stride > hi-lo, lo blocked" None
    (Iset.find_free_strided s ~size:4 ~lo:12 ~hi:15 ~stride:100);
  Alcotest.(check (option int))
    "blocker ends at hi: only start left is hi itself" (Some 20)
    (Iset.find_free_strided s ~size:4 ~lo:10 ~hi:20 ~stride:5);
  Alcotest.(check (option int))
    "blocker covering hi leaves nothing" None
    (Iset.find_free s ~size:1 ~lo:10 ~hi:19);
  Alcotest.check_raises "stride < 1 rejected"
    (Invalid_argument "Iset.find_free_strided") (fun () ->
      ignore (Iset.find_free_strided s ~size:1 ~lo:0 ~hi:10 ~stride:0))

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "same as List.map, in input order"
    (List.map (fun x -> x * x) xs)
    (Pool.map ~domains:4 (fun x -> x * x) xs)

let test_pool_map_serial_fallback () =
  let xs = List.init 10 Fun.id in
  Alcotest.(check (list int))
    "domains:1 degrades to List.map" (List.map succ xs)
    (Pool.map ~domains:1 succ xs);
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~domains:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.map ~domains:4 succ [ 7 ])

let test_pool_map_exception () =
  Alcotest.check_raises "worker exception reaches the caller"
    (Failure "boom") (fun () ->
      ignore
        (Pool.map ~domains:4
           (fun x -> if x = 37 then failwith "boom" else x)
           (List.init 64 Fun.id)))

let test_pool_iter_runs_all () =
  let total = Atomic.make 0 in
  Pool.iter ~domains:4
    (fun x -> ignore (Atomic.fetch_and_add total x))
    (List.init 50 Fun.id);
  Alcotest.(check int) "every element visited once" (50 * 49 / 2)
    (Atomic.get total)

let test_pool_default_domains () =
  Alcotest.(check bool) "at least one domain" true (Pool.default_domains () >= 1)

let test_pool_spawn_failure_degrades () =
  (* Every helper spawn refused: the calling domain still drains the whole
     task list through the shared cursor, in order. *)
  let xs = List.init 40 Fun.id in
  Alcotest.(check (list int))
    "all spawns fail -> serial completion"
    (List.map (fun x -> x * 3) xs)
    (Pool.map ~domains:4 ~spawn_failure:(fun _ -> true) (fun x -> x * 3) xs);
  Alcotest.(check (list int))
    "partial spawn failure"
    (List.map succ xs)
    (Pool.map ~domains:4 ~spawn_failure:(fun i -> i mod 2 = 0) succ xs)

let test_pool_service_executes_all () =
  let svc = Pool.Service.create ~domains:4 () in
  let total = Atomic.make 0 in
  for i = 1 to 100 do
    Pool.Service.submit svc (fun () -> ignore (Atomic.fetch_and_add total i))
  done;
  Pool.Service.drain svc;
  Alcotest.(check int) "all tasks ran" (100 * 101 / 2) (Atomic.get total);
  Alcotest.(check int) "executed count" 100 (Pool.Service.executed svc);
  Pool.Service.shutdown svc

let test_pool_service_traps_exceptions () =
  (* Daemon containment: a crashing task is swallowed and counted, and
     its siblings still run — then the closed pool refuses new work. *)
  let svc = Pool.Service.create ~domains:2 () in
  let ran = Atomic.make 0 in
  Pool.Service.submit svc (fun () -> failwith "session crash");
  Pool.Service.submit svc (fun () -> Atomic.incr ran);
  Pool.Service.drain svc;
  Alcotest.(check int) "sibling task still ran" 1 (Atomic.get ran);
  Alcotest.(check int) "crash trapped and counted" 1 (Pool.Service.trapped svc);
  Alcotest.(check int) "both tasks count as executed" 2
    (Pool.Service.executed svc);
  Pool.Service.shutdown svc;
  Alcotest.check_raises "submit after shutdown refused"
    (Invalid_argument "Pool.Service.submit: pool is shut down") (fun () ->
      Pool.Service.submit svc (fun () -> ()))

let test_pool_service_single_domain () =
  let svc = Pool.Service.create ~domains:1 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 25 do
    Pool.Service.submit svc (fun () -> Atomic.incr hits)
  done;
  Pool.Service.drain svc;
  Alcotest.(check int) "single worker drains the queue" 25 (Atomic.get hits);
  Pool.Service.shutdown svc

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_int_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_range_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.range r (-5) 5 in
    check_bool "in range" true (v >= -5 && v <= 5)
  done

let test_rng_weighted () =
  let r = Rng.create 1L in
  for _ = 1 to 200 do
    let v = Rng.weighted r [ (0.0, `A); (1.0, `B) ] in
    check_bool "zero weight never drawn" true (v = `B)
  done

let test_rng_split_independent () =
  let r = Rng.create 5L in
  let a = Rng.split r and b = Rng.split r in
  check_bool "split streams differ" true (Rng.next a <> Rng.next b)

let test_rng_deterministic_across_domains () =
  (* The parallel bench pipeline seeds one Rng per work item; a stream
     must not depend on which domain runs it. *)
  let stream () =
    let r = Rng.create 99L in
    List.init 64 (fun _ -> Rng.next r)
  in
  let here = stream () in
  let there =
    Array.init 4 (fun _ -> Domain.spawn stream) |> Array.map Domain.join
  in
  Array.iter
    (fun l -> Alcotest.(check (list int64)) "same stream in every domain" here l)
    there

let test_rng_shuffle_permutation () =
  let r = Rng.create 9L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Atomic_file                                                         *)
(* ------------------------------------------------------------------ *)

let with_target f =
  let path = Filename.temp_file "e9atomic" ".out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove (path :: Atomic_file.leftovers path))
    (fun () -> f path)

let read path = In_channel.with_open_bin path In_channel.input_all

let test_atomic_file_mode_and_fault () =
  with_target @@ fun path ->
  Atomic_file.write path "first";
  let umask = Unix.umask 0 in
  ignore (Unix.umask umask);
  check_int "mode is 0o666 minus umask" (0o666 land lnot umask)
    ((Unix.stat path).Unix.st_perm);
  (match Atomic_file.write ~fault:(fun () -> true) path "second" with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ());
  check_bool "a failed write leaves the old file" true (read path = "first");
  check_bool "and no temp file" true (Atomic_file.leftovers path = [])

(* Writers of one destination on several domains never share a temp
   file: the destination always holds one complete payload. *)
let test_atomic_file_concurrent_writers () =
  with_target @@ fun path ->
  let payload w = String.make 65536 (Char.chr (Char.code 'a' + w)) in
  let writer w () =
    for _ = 1 to 25 do
      Atomic_file.write path (payload w)
    done
  in
  Array.init 4 (fun w -> Domain.spawn (writer w)) |> Array.iter Domain.join;
  check_bool "one complete payload" true
    (List.mem (read path) (List.init 4 payload));
  check_bool "no temp files" true (Atomic_file.leftovers path = [])

let suites =
  [ ( "bits.buf",
      [ Alcotest.test_case "roundtrip widths" `Quick test_buf_roundtrip_widths;
        Alcotest.test_case "little endian" `Quick test_buf_little_endian;
        Alcotest.test_case "i32 sign" `Quick test_buf_i32_sign;
        Alcotest.test_case "grow" `Quick test_buf_grow;
        Alcotest.test_case "blit/sub" `Quick test_buf_blit_sub;
        Alcotest.test_case "pad_to" `Quick test_buf_pad_to;
        Alcotest.test_case "bounds" `Quick test_buf_bounds ] );
    ( "bits.iset",
      [ Alcotest.test_case "add merges adjacent" `Quick test_iset_add_merge;
        Alcotest.test_case "add merges overlap" `Quick test_iset_add_overlap;
        Alcotest.test_case "mem" `Quick test_iset_mem;
        Alcotest.test_case "remove splits" `Quick test_iset_remove_split;
        Alcotest.test_case "find_free" `Quick test_iset_find_free;
        Alcotest.test_case "find_free_last" `Quick test_iset_find_free_last;
        Alcotest.test_case "copy independent" `Quick test_iset_copy_independent;
        Alcotest.test_case "stride corners" `Quick test_iset_stride_corners;
        QCheck_alcotest.to_alcotest prop_iset_matches_model;
        QCheck_alcotest.to_alcotest prop_iset_find_free_last_valid;
        QCheck_alcotest.to_alcotest prop_iset_op_sequence_model;
        QCheck_alcotest.to_alcotest prop_iset_add_remove_inverse;
        QCheck_alcotest.to_alcotest prop_iset_queries_match_model;
        QCheck_alcotest.to_alcotest prop_iset_strided_non_pow2 ] );
    ( "bits.pool",
      [ Alcotest.test_case "map preserves order" `Quick
          test_pool_map_preserves_order;
        Alcotest.test_case "serial fallback" `Quick
          test_pool_map_serial_fallback;
        Alcotest.test_case "exception propagation" `Quick
          test_pool_map_exception;
        Alcotest.test_case "iter side effects" `Quick test_pool_iter_runs_all;
        Alcotest.test_case "default domains" `Quick test_pool_default_domains;
        Alcotest.test_case "spawn failure degrades" `Quick
          test_pool_spawn_failure_degrades;
        Alcotest.test_case "service executes all" `Quick
          test_pool_service_executes_all;
        Alcotest.test_case "service traps task exceptions" `Quick
          test_pool_service_traps_exceptions;
        Alcotest.test_case "service single domain" `Quick
          test_pool_service_single_domain ]
    );
    ( "bits.rng",
      [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "range bounds" `Quick test_rng_range_bounds;
        Alcotest.test_case "weighted" `Quick test_rng_weighted;
        Alcotest.test_case "split" `Quick test_rng_split_independent;
        Alcotest.test_case "deterministic across domains" `Quick
          test_rng_deterministic_across_domains;
        Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation ] );
    ( "bits.atomic_file",
      [ Alcotest.test_case "mode, failed write keeps the old file" `Quick
          test_atomic_file_mode_and_fault;
        Alcotest.test_case "concurrent writers of one path" `Quick
          test_atomic_file_concurrent_writers ] ) ]
