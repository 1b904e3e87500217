let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let hash64 ?(h = offset_basis) b ~pos ~len =
  let acc = ref h in
  for i = pos to pos + len - 1 do
    acc :=
      Int64.mul
        (Int64.logxor !acc (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        prime
  done;
  !acc

let hash64_string s =
  hash64 (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let to_hex h = Printf.sprintf "%016Lx" h
let hex ?h b ~pos ~len = to_hex (hash64 ?h b ~pos ~len)
