module Buf = E9_bits.Buf

type outcome = Applied of Stats.tactic | Failed | Deferred

type site_plan = {
  s_addr : int;
  s_outcome : outcome;
  s_tramps : (int * bytes) list;
  s_traps : Loadmap.trap list;
  s_class : int;
}

type chunk = {
  c_lo : int;
  c_len : int;
  c_entry : int;
  c_exit : int;
  c_sites : Frontend.site list;
  c_plans : site_plan list;
  c_diff : (int * string) list;
  c_locks : (int * int) list;
  c_dead : (int * int) list;
}

type config = { store : chunk Cache.t; spec_key : lo:int -> len:int -> string }

let capacity = 1024

let key ~hash ~addr ~len ~env =
  Printf.sprintf "p1:%s:%x+%x:%s" hash addr len
    (E9_bits.Fnv.to_hex (E9_bits.Fnv.hash64_string env))

(* ------------------------------------------------------------------ *)
(* Text diffs                                                          *)
(* ------------------------------------------------------------------ *)

let diff ~pristine ~current ~lo ~len =
  let out = ref [] in
  let i = ref 0 in
  while !i < len do
    if Bytes.unsafe_get pristine (lo + !i) <> Bytes.unsafe_get current (lo + !i)
    then begin
      let start = !i in
      while
        !i < len
        && Bytes.unsafe_get pristine (lo + !i)
           <> Bytes.unsafe_get current (lo + !i)
      do
        incr i
      done;
      out :=
        (start, Bytes.sub_string current (lo + start) (!i - start)) :: !out
    end
    else incr i
  done;
  List.rev !out

let apply_diff buf ~lo d =
  List.iter
    (fun (off, s) -> Buf.blit_in buf ~pos:(lo + off) (Bytes.of_string s))
    d

(* ------------------------------------------------------------------ *)
(* File backing                                                        *)
(* ------------------------------------------------------------------ *)

(* Marshal is not type-safe and has no checksum: a payload from another
   compiler or another [chunk] layout, or with a flipped byte, can
   unmarshal without error into wrong plans. The header pins the
   compiler version ([Sys.ocaml_version]) and the format ([magic]); an
   MD5 of the payload follows it. The [chunk] layout is not detectable
   from the bytes, so any change to [chunk] or the types it contains
   must bump [magic] (the golden Marshal digest in test_core fails
   until it is). *)
let magic = "e9plan2\n"
let header = magic ^ Sys.ocaml_version ^ "\n"

let save store file =
  let payload = Marshal.to_string (Cache.items store) [] in
  E9_bits.Atomic_file.write file
    (String.concat "" [ header; Digest.string payload; payload ])

let load file =
  let store = Cache.create ~capacity () in
  let hlen = String.length header and dlen = 16 in
  (match In_channel.with_open_bin file In_channel.input_all with
  | s when String.starts_with ~prefix:header s && String.length s >= hlen + dlen
    ->
      let payload = String.sub s (hlen + dlen) (String.length s - hlen - dlen) in
      if Digest.string payload = String.sub s hlen dlen then
        List.iter
          (fun (k, v) -> Cache.add store k v)
          (Marshal.from_string payload 0 : (string * chunk) list)
  | _ | (exception Sys_error _) -> ());
  store
