(* BENCHMARK.json, the benchmark's declaration: run length and every
   metric the ledger reports, with unit, direction and (end to end) the
   bound by which it may worsen. The ledger reads it rather than keeping
   a second copy of the metric list. *)

module Json = E9_obs.Json

type metric = { name : string; unit : string; lower_better : bool; bound : float option }

type t = { run_seconds : int; end_to_end : metric list; per_layer : metric list }

(* Read from the working directory: the ledger runs from the checkout's
   root. *)
let path = "BENCHMARK.json"

let load () =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let j =
    match Json.of_string text with
    | Ok j -> j
    | Error m -> failwith (Printf.sprintf "%s: %s" path m)
  in
  let field k j =
    match Json.member k j with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: missing %S" path k)
  in
  let str = function Json.Str s -> s | _ -> failwith (path ^ ": expected a string") in
  let num = function
    | Json.Int n -> float_of_int n
    | Json.Float f -> f
    | _ -> failwith (path ^ ": expected a number")
  in
  let metrics k =
    match field k j with
    | Json.List l ->
        List.map
          (fun m ->
            { name = str (field "name" m);
              unit = str (field "unit" m);
              lower_better = str (field "better" m) = "lower";
              bound = Option.map num (Json.member "bound" m) })
          l
    | _ -> failwith (Printf.sprintf "%s: %S must be a list" path k)
  in
  { run_seconds = int_of_float (num (field "run_seconds" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer" }
