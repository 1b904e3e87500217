module Json = E9_obs.Json

type id = Int_id of int | Str_id of string | Null_id

type request = {
  meth : string;
  params : Json.t;
  id : id option;
}

type incoming = Request of request | Invalid of string

type line =
  | Single of incoming
  | Batch of incoming list
  | Empty_batch
  | Unparsable of string

(* Reserved JSON-RPC 2.0 codes. *)
let parse_error = -32700
let invalid_request = -32600
let method_not_found = -32601
let invalid_params = -32602
(* -32603 (internal error) is a bug: nothing maps there on purpose. *)

(* Application codes: one per typed failure family (DESIGN.md §13). *)
let state_error = -32000
let malformed_binary = -32001
let rewrite_refused = -32002
let io_error = -32003
let spec_error = -32004
let verify_failed = -32005
let injected_fault = -32006

(* ------------------------------------------------------------------ *)
(* Envelope validation                                                 *)
(* ------------------------------------------------------------------ *)

let incoming_of_json j =
  match j with
  | Json.Obj fields -> (
      match List.assoc_opt "jsonrpc" fields with
      | Some (Json.Str "2.0") -> (
          let id =
            match List.assoc_opt "id" fields with
            | None -> Ok None
            | Some (Json.Int n) -> Ok (Some (Int_id n))
            | Some (Json.Str s) -> Ok (Some (Str_id s))
            | Some Json.Null -> Ok (Some Null_id)
            | Some _ -> Error "id must be an integer, string or null"
          in
          match id with
          | Error m -> Invalid m
          | Ok id -> (
              match List.assoc_opt "method" fields with
              | Some (Json.Str meth) -> (
                  match List.assoc_opt "params" fields with
                  | None -> Request { meth; params = Json.Obj []; id }
                  | Some (Json.Obj _ as params) -> Request { meth; params; id }
                  | Some _ -> Invalid "params must be an object")
              | Some _ -> Invalid "method must be a string"
              | None -> Invalid "missing method"))
      | Some _ | None -> Invalid "missing jsonrpc: \"2.0\"")
  | _ -> Invalid "request must be an object"

let parse_line s =
  match Json.of_string s with
  | Error m -> Unparsable m
  | Ok (Json.List []) -> Empty_batch
  | Ok (Json.List entries) -> Batch (List.map incoming_of_json entries)
  | Ok j -> Single (incoming_of_json j)

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

(* The E9Patch extension: integers may be spelled as decimal or 0x-hex
   strings, since patch addresses exceed some encoders' exact range. *)
let int_of_extended = function
  | Json.Int n -> Some n
  | Json.Str s -> int_of_string_opt s
  | _ -> None

let int_param params key =
  match Json.member key params with
  | None -> `Missing
  | Some v -> ( match int_of_extended v with Some n -> `Ok n | None -> `Bad)

let string_param params key =
  match Json.member key params with
  | None -> `Missing
  | Some (Json.Str s) -> `Ok s
  | Some _ -> `Bad

let bool_param params key =
  match Json.member key params with
  | None -> `Missing
  | Some (Json.Bool b) -> `Ok b
  | Some _ -> `Bad

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let id_json = function
  | Int_id n -> Json.Int n
  | Str_id s -> Json.Str s
  | Null_id -> Json.Null

let response id result =
  Json.Obj [ ("jsonrpc", Json.Str "2.0"); ("id", id_json id); ("result", result) ]

let error_response id ~code ~message ?data () =
  let err =
    [ ("code", Json.Int code); ("message", Json.Str message) ]
    @ match data with None -> [] | Some d -> [ ("data", d) ]
  in
  Json.Obj
    [ ("jsonrpc", Json.Str "2.0"); ("id", id_json id); ("error", Json.Obj err) ]

(* ------------------------------------------------------------------ *)
(* Hex payloads                                                        *)
(* ------------------------------------------------------------------ *)

let hex_of_bytes b =
  let n = Bytes.length b in
  let out = Bytes.create (2 * n) in
  let digits = "0123456789abcdef" in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.get b i) in
    Bytes.set out (2 * i) digits.[c lsr 4];
    Bytes.set out ((2 * i) + 1) digits.[c land 0xf]
  done;
  Bytes.unsafe_to_string out

let nibble c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let bytes_of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else
    let out = Bytes.create (n / 2) in
    let rec go i =
      if i >= n then Ok out
      else
        match (nibble s.[i], nibble s.[i + 1]) with
        | Some hi, Some lo ->
            Bytes.set out (i / 2) (Char.chr ((hi lsl 4) lor lo));
            go (i + 2)
        | _ -> Error (Printf.sprintf "bad hex digit at %d" i)
    in
    go 0
