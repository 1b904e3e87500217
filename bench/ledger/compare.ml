(* [ledger.exe compare A/*.json -- B/*.json]: the claim and no-regression
   table between a parent (A) and a change (B), one row per workload for
   correctness and one per workload and end-to-end metric. Runs pair by
   seed. Verdicts:

   - failed: a run of B was not correct, B failed more ops than A, B has
     fewer runs of a workload than A, or a run of B lacks a metric A
     reports;
   - unresolved: A's own spread (quartile distance over median) exceeds
     the bound, unless every run of B reads better than every run of A;
   - regressed: B's median is worse than A's by more than the bound;
   - improved: at least 10 pairs, B better in at least 9 of 10 (ties
     count for neither), and the medians differ by more than A's
     quartile distance;
   - within: none of these.

   Output quality is a function of the seed, so for the metrics in
   [per_seed] the seed-paired change is judged instead: it is exactly 0 on
   unchanged code, so a far tighter bound holds than the cross-seed bound
   of BENCHMARK.json, and it holds on every seed. A failed or regressed
   verdict makes the exit code 1. *)

module Json = E9_obs.Json

type record = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

(* Metric, and the bound on its seed-paired change. *)
let per_seed = [ ("coverage_pct", 0.0); ("size_pct", 0.01); ("overhead_pct", 0.01) ]

let load path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         let bad what = failwith (Printf.sprintf "%s: %s" path what) in
         let j = match Json.of_string line with Ok j -> j | Error m -> bad m in
         let int k =
           match Json.member k j with
           | Some (Json.Int n) -> n
           | _ -> bad (Printf.sprintf "record without an integer %S" k)
         in
         let num = function
           | Some (Json.Float f) -> Some f
           | Some (Json.Int n) -> Some (float_of_int n)
           | _ -> None
         in
         { workload =
             (match Json.member "workload" j with
             | Some (Json.Str w) -> w
             | _ -> bad "record without a workload");
           seed = int "seed";
           correct = Json.member "correct" j = Some (Json.Bool true);
           attempted = int "attempted";
           failed = int "failed";
           values =
             (match Json.member "metrics" j with
             | Some (Json.Obj l) ->
                 List.filter_map
                   (fun (k, m) -> Option.map (fun f -> (k, f)) (num (Json.member "value" m)))
                   l
             | _ -> []) })

(* [better x y]: x reads better than y. *)
let verdict ~better ~bound ~pairs a b =
  let q1, ma, q3 = Stat.quartiles a and mb = Stat.median b in
  let worse_by = if better ma mb then abs_float (mb -. ma) /. abs_float ma else 0.0 in
  let iqr = q3 -. q1 in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  if iqr /. abs_float ma > bound && not all_better then "unresolved"
  else if worse_by > bound then "regressed"
  else if
    List.length pairs >= 10
    && wins * 10 >= 9 * List.length pairs
    && abs_float (mb -. ma) > iqr && better mb ma
  then "improved"
  else "within"

(* The seed-paired verdict: A's and B's values of one seed differ only by
   the change, so no seed may read worse by more than the bound. *)
let paired_verdict ~better ~bound pairs =
  let worse_by (x, y) = if better x y then abs_float ((y -. x) /. x) else 0.0 in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  if List.exists (fun p -> worse_by p > bound) pairs then "regressed"
  else if List.length pairs >= 10 && wins * 10 >= 9 * List.length pairs then "improved"
  else "within"

let summary xs =
  let q1, m, q3 = Stat.quartiles xs in
  Printf.sprintf "%.5g [%.5g, %.5g] n=%d" m q1 q3 (List.length xs)

let row w name a b bound v =
  Printf.printf "%-13s %-13s %-34s %-34s %-6s %s\n" w name a b bound v

let run (decl : Bench_decl.t) ~parent ~change =
  let a = List.concat_map load parent and b = List.concat_map load change in
  let workloads =
    List.fold_left
      (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
      [] (a @ b)
  in
  row "workload" "metric" "parent median [q1, q3]" "change median [q1, q3]" "bound" "verdict";
  let bad = ref false in
  let say w name sa sb bound v =
    if String.starts_with ~prefix:"failed" v || v = "regressed" then bad := true;
    row w name sa sb bound v
  in
  List.iter
    (fun w ->
      let ra = List.filter (fun r -> r.workload = w) a
      and rb = List.filter (fun r -> r.workload = w) b in
      let tally rs =
        List.fold_left (fun acc r -> acc + r.failed) 0 rs,
        List.fold_left (fun acc r -> acc + r.attempted) 0 rs
      in
      let fa, aa = tally ra and fb, ab = tally rb in
      say w "failed"
        (Printf.sprintf "%d of %d, %d runs" fa aa (List.length ra))
        (Printf.sprintf "%d of %d, %d runs" fb ab (List.length rb))
        "0"
        (if ra = [] then "new"
         else if List.length rb < List.length ra then "failed: runs missing"
         else if List.exists (fun r -> not r.correct) rb || fb > fa then "failed"
         else "within");
      List.iter
        (fun (m : Bench_decl.metric) ->
          let values rs = List.filter_map (fun r -> List.assoc_opt m.name r.values) rs in
          let better x y = if m.lower_better then x < y else x > y in
          let pairs =
            List.filter_map
              (fun r ->
                match
                  ( List.assoc_opt m.name r.values,
                    List.find_map
                      (fun r' -> if r'.seed = r.seed then List.assoc_opt m.name r'.values else None)
                      rb )
                with
                | Some x, Some y -> Some (x, y)
                | _ -> None)
              ra
          in
          match (values ra, values rb, m.bound) with
          | [], [], _ | _, _, None -> ()
          | [], xb, Some _ -> say w m.name "-" (summary xb) "-" "new"
          | xa, xb, Some _
            when xb = [] || List.exists (fun r -> not (List.mem_assoc m.name r.values)) rb ->
              say w m.name (summary xa) (if xb = [] then "-" else summary xb) "-" "failed: missing"
          | xa, xb, Some bound -> (
              match List.assoc_opt m.name per_seed with
              | Some seed_bound when pairs <> [] ->
                  say w m.name (summary xa) (summary xb)
                    (Printf.sprintf "%g/seed" seed_bound)
                    (paired_verdict ~better ~bound:seed_bound pairs)
              | _ ->
                  say w m.name (summary xa) (summary xb) (Printf.sprintf "%g" bound)
                    (verdict ~better ~bound ~pairs xa xb)))
        decl.Bench_decl.end_to_end)
    workloads;
  if !bad then exit 1
