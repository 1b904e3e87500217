type t = { base : int; flags : Bytes.t; mutable count : int }

let create ~base ~len = { base; flags = Bytes.make len '\000'; count = 0 }

let lock t addr =
  let i = addr - t.base in
  if i >= 0 && i < Bytes.length t.flags && Bytes.get t.flags i = '\000' then begin
    Bytes.set t.flags i '\001';
    t.count <- t.count + 1
  end

let lock_range t ~addr ~len =
  for a = addr to addr + len - 1 do
    lock t a
  done

let locked t addr =
  let i = addr - t.base in
  i >= 0 && i < Bytes.length t.flags && Bytes.get t.flags i <> '\000'

let all_unlocked t ~addr ~len =
  let rec go a = a >= addr + len || ((not (locked t a)) && go (a + 1)) in
  go addr

let locked_count t = t.count
