(** Hash tables keyed by native ints (addresses, page numbers, file
    offsets). Hashing a key is one multiply and one shift, with no call
    to the polymorphic [caml_hash] and no polymorphic compare: the high
    bits of the product, which depend on every low bit of the key, so
    aligned keys still spread over the table. *)

include Hashtbl.S with type key = int
