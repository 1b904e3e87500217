type 'a entry = { value : 'a; gen : int; mutable stamp : int }

type 'a t = {
  mutex : Mutex.t;
  table : (string, 'a entry) Hashtbl.t;
  capacity : int;
  mutable clock : int;  (** logical time for LRU stamps *)
  mutable generation : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create (2 * capacity);
    capacity;
    clock = 0;
    generation = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some e when e.gen = t.generation ->
      t.clock <- t.clock + 1;
      e.stamp <- t.clock;
      t.hits <- t.hits + 1;
      Some e.value
  | Some _ ->
      (* Stale generation: the flush left it for us to sweep. *)
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1;
      t.misses <- t.misses + 1;
      None
  | None ->
      t.misses <- t.misses + 1;
      None

let evict_lru t =
  (* Linear scan: eviction is off the hit path, and a full store pays it
     once per insertion. Stale entries are preferred victims. *)
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      let order = if e.gen = t.generation then e.stamp else -1 in
      match !victim with
      | Some (_, best) when best <= order -> ()
      | _ -> victim := Some (key, order))
    t.table;
  match !victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1
  | None -> ()

let add t key value =
  locked t @@ fun () ->
  if Hashtbl.mem t.table key then Hashtbl.remove t.table key
  else if Hashtbl.length t.table >= t.capacity then evict_lru t;
  t.clock <- t.clock + 1;
  t.insertions <- t.insertions + 1;
  Hashtbl.replace t.table key { value; gen = t.generation; stamp = t.clock }

let flush t =
  locked t @@ fun () ->
  t.generation <- t.generation + 1;
  t.generation

type stats = {
  hits : int;
  misses : int;
  entries : int;
  insertions : int;
  evictions : int;
  generation : int;
}

let stats t =
  locked t @@ fun () ->
  let entries =
    Hashtbl.fold
      (fun _ e n -> if e.gen = t.generation then n + 1 else n)
      t.table 0
  in
  {
    hits = t.hits;
    misses = t.misses;
    entries;
    insertions = t.insertions;
    evictions = t.evictions;
    generation = t.generation;
  }

let hit_rate s =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0.0 else float_of_int s.hits /. float_of_int lookups

let stats_json s =
  let module Json = E9_obs.Json in
  Json.Obj
    [
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("entries", Json.Int s.entries);
      ("insertions", Json.Int s.insertions);
      ("evictions", Json.Int s.evictions);
      ("generation", Json.Int s.generation);
      ("hit_rate", Json.Float (hit_rate s));
    ]

(* ------------------------------------------------------------------ *)
(* FNV-1a 64                                                           *)
(* ------------------------------------------------------------------ *)

let fnv1a64 b = E9_bits.Fnv.hex b ~pos:0 ~len:(Bytes.length b)
let fnv1a64_string s = E9_bits.Fnv.to_hex (E9_bits.Fnv.hash64_string s)
