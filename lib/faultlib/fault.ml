type site =
  | Alloc
  | B0_alloc
  | Decode
  | Search
  | Trace
  | Write
  | Rpc_accept
  | Rpc_read
  | Rpc_decode
  | Rpc_emit

let sites =
  [| Alloc; B0_alloc; Decode; Search; Trace; Write; Rpc_accept; Rpc_read;
     Rpc_decode; Rpc_emit |]

let nsites = Array.length sites

(* Append-only: existing indices are pinned by golden tests and by any
   persisted fired-count report. New sites go at the end. *)
let site_index = function
  | Alloc -> 0
  | B0_alloc -> 1
  | Decode -> 2
  | Search -> 3
  | Trace -> 4
  | Write -> 5
  | Rpc_accept -> 6
  | Rpc_read -> 7
  | Rpc_decode -> 8
  | Rpc_emit -> 9

let site_name = function
  | Alloc -> "alloc"
  | B0_alloc -> "b0alloc"
  | Decode -> "decode"
  | Search -> "search"
  | Trace -> "trace"
  | Write -> "write"
  | Rpc_accept -> "rpcaccept"
  | Rpc_read -> "rpcread"
  | Rpc_decode -> "rpcdecode"
  | Rpc_emit -> "rpcemit"

let site_of_name s =
  let rec go i =
    if i >= nsites then None
    else if site_name sites.(i) = s then Some sites.(i)
    else go (i + 1)
  in
  go 0

type trigger = At of int | From of int | Every of int
type rule = { site : site; trigger : trigger }

exception Parse_error of string
exception Injected of string

type t = { rules : rule list; counts : int array; fired : int array }

let none = { rules = []; counts = [||]; fired = [||] }

let create rules =
  if rules = [] then none
  else { rules; counts = Array.make nsites 0; fired = Array.make nsites 0 }

let is_none t = t.rules = []

let matches trigger n =
  match trigger with
  | At k -> n = k
  | From k -> n >= k
  | Every k -> k > 0 && n mod k = 0

let fires t site =
  t.rules <> []
  && begin
       let i = site_index site in
       let n = t.counts.(i) in
       t.counts.(i) <- n + 1;
       let hit =
         List.exists (fun r -> r.site = site && matches r.trigger n) t.rules
       in
       if hit then t.fired.(i) <- t.fired.(i) + 1;
       hit
     end

let decode_cut t =
  List.fold_left
    (fun acc r ->
      if r.site <> Decode then acc
      else
        let v =
          match r.trigger with At k | From k | Every k -> k
        in
        match acc with None -> Some v | Some a -> Some (min a v))
    None t.rules

let record_fire t site =
  if t.rules <> [] then begin
    let i = site_index site in
    t.fired.(i) <- t.fired.(i) + 1
  end

let fired t site = if t.rules = [] then 0 else t.fired.(site_index site)
let fired_total t = if t.rules = [] then 0 else Array.fold_left ( + ) 0 t.fired

(* ------------------------------------------------------------------ *)
(* Spec grammar: site@N | site@N+ | site%N, comma-separated.           *)
(* ------------------------------------------------------------------ *)

let err fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let parse_int item s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> n
  | Some _ -> err "fault spec %S: negative count" item
  | None -> err "fault spec %S: bad count %S" item s

let parse_item item =
  let split c =
    match String.index_opt item c with
    | Some i ->
        Some
          ( String.sub item 0 i,
            String.sub item (i + 1) (String.length item - i - 1) )
    | None -> None
  in
  let site name =
    match site_of_name (String.lowercase_ascii name) with
    | Some s -> s
    | None -> err "fault spec %S: unknown site %S" item name
  in
  match split '@' with
  | Some (name, n) ->
      let trigger =
        if String.length n > 0 && n.[String.length n - 1] = '+' then
          From (parse_int item (String.sub n 0 (String.length n - 1)))
        else At (parse_int item n)
      in
      { site = site name; trigger }
  | None -> (
      match split '%' with
      | Some (name, n) ->
          let k = parse_int item n in
          if k = 0 then err "fault spec %S: every-0 never fires" item;
          { site = site name; trigger = Every k }
      | None -> err "fault spec %S: expected site@N, site@N+ or site%%N" item)

let parse s =
  let s = String.trim s in
  if s = "" then []
  else
    String.split_on_char ',' s
    |> List.map (fun item ->
           let item = String.trim item in
           if item = "" then err "fault spec: empty rule in %S" s;
           parse_item item)

let to_string rules =
  String.concat ","
    (List.map
       (fun r ->
         match r.trigger with
         | At n -> Printf.sprintf "%s@%d" (site_name r.site) n
         | From n -> Printf.sprintf "%s@%d+" (site_name r.site) n
         | Every n -> Printf.sprintf "%s%%%d" (site_name r.site) n)
       rules)
