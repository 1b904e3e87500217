type t = { mutable data : bytes; mutable len : int }

let create n = { data = Bytes.make (max n 16) '\000'; len = 0 }
let length b = b.len

let ensure b n =
  if n > Bytes.length b.data then begin
    let cap = ref (Bytes.length b.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Bytes.make !cap '\000' in
    Bytes.blit b.data 0 data 0 b.len;
    b.data <- data
  end

(* A fresh buffer holding a copy of [s[0, len)], in one allocation. *)
let of_prefix s len =
  let b = create len in
  Bytes.blit s 0 b.data 0 len;
  b.len <- len;
  b

let of_bytes s = of_prefix s (Bytes.length s)
let of_string s = of_bytes (Bytes.of_string s)
let copy b = of_prefix b.data b.len
let contents b = Bytes.sub b.data 0 b.len

let check b pos len =
  if pos < 0 || len < 0 || pos + len > b.len then
    invalid_arg
      (Printf.sprintf "Buf: range %d+%d out of bounds (len %d)" pos len b.len)

let sub b ~pos ~len =
  check b pos len;
  Bytes.sub b.data pos len

let raw b = b.data

let borrow b ~pos ~len =
  check b pos len;
  b.data

let truncate b n =
  check b 0 n;
  b.len <- n

let blit_in b ~pos s =
  check b pos (Bytes.length s);
  Bytes.blit s 0 b.data pos (Bytes.length s)

let get_u8 b i =
  check b i 1;
  Char.code (Bytes.unsafe_get b.data i)

let set_u8 b i v =
  check b i 1;
  Bytes.unsafe_set b.data i (Char.chr (v land 0xff))

let get_u16 b i =
  check b i 2;
  Char.code (Bytes.get b.data i) lor (Char.code (Bytes.get b.data (i + 1)) lsl 8)

let get_u32 b i =
  check b i 4;
  get_u16 b i lor (get_u16 b (i + 2) lsl 16)

let get_i32 b i =
  let v = get_u32 b i in
  if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

let get_u64 b i =
  check b i 8;
  Int64.logor
    (Int64.of_int (get_u32 b i))
    (Int64.shift_left (Int64.of_int (get_u32 b (i + 4))) 32)

let set_u16 b i v =
  set_u8 b i v;
  set_u8 b (i + 1) (v lsr 8)

let set_u32 b i v =
  set_u16 b i v;
  set_u16 b (i + 2) (v lsr 16)

let set_u64 b i v =
  set_u32 b i (Int64.to_int (Int64.logand v 0xffff_ffffL));
  set_u32 b (i + 4) (Int64.to_int (Int64.shift_right_logical v 32))

let add_u8 b v =
  let pos = b.len in
  ensure b (pos + 1);
  b.len <- pos + 1;
  set_u8 b pos v;
  pos

let add_u16 b v =
  let pos = b.len in
  ensure b (pos + 2);
  b.len <- pos + 2;
  set_u16 b pos v;
  pos

let add_u32 b v =
  let pos = b.len in
  ensure b (pos + 4);
  b.len <- pos + 4;
  set_u32 b pos v;
  pos

let add_u64 b v =
  let pos = b.len in
  ensure b (pos + 8);
  b.len <- pos + 8;
  set_u64 b pos v;
  pos

let add_bytes b s =
  let pos = b.len in
  ensure b (pos + Bytes.length s);
  b.len <- pos + Bytes.length s;
  blit_in b ~pos s;
  pos

let add_string b s = add_bytes b (Bytes.of_string s)

let add_zeros b n =
  let pos = b.len in
  ensure b (pos + n);
  Bytes.fill b.data pos n '\000';
  b.len <- pos + n;
  pos

let pad_to b n = if b.len < n then ignore (add_zeros b (n - b.len))
