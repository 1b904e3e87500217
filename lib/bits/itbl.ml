include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = (x * 0x4f1bbcdcbfa53e0b) lsr 29
end)
