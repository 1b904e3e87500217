(* A small domain-parallel map over independent tasks.

   Work distribution is a shared atomic cursor over the input array: each
   domain claims the next unclaimed index, so uneven task costs balance
   without chunk-size tuning. Results land in per-index slots, which keeps
   the output in input order regardless of completion order — callers that
   print results sequentially are byte-identical to a serial run. *)

let default_domains () =
  match Sys.getenv_opt "E9_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let map ?domains ?(spawn_failure = fun _ -> false) f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let d =
    let want = match domains with Some d -> max 1 d | None -> default_domains () in
    min want n
  in
  if d <= 1 || n <= 1 then List.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
            (try Some (Ok (f items.(i)))
             with e -> Some (Error (e, Printexc.get_raw_backtrace ()))));
          go ()
        end
      in
      go ()
    in
    (* Helper-domain loss containment: when the runtime cannot spawn a
       helper (resource exhaustion, or an injected failure via
       [spawn_failure]), degrade to fewer workers instead of propagating
       mid-spawn — which would leave earlier helpers unjoined. The shared
       cursor guarantees the surviving workers (at minimum the calling
       domain itself) still drain every task, so no task is dropped and
       no join deadlocks. *)
    let helpers =
      List.init (d - 1) Fun.id
      |> List.filter_map (fun i ->
             if spawn_failure i then None
             else
               match Domain.spawn worker with
               | dom -> Some dom
               | exception _ -> None)
    in
    worker ();
    List.iter Domain.join helpers;
    (* The exception at the lowest input index wins — the one a serial
       List.map would have raised (later tasks may already have run; their
       side effects stand, as with any parallel map). *)
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

let iter ?domains f xs = ignore (map ?domains (fun x -> f x) xs)

(* ------------------------------------------------------------------ *)
(* Service: a persistent worker pool for open-ended task streams       *)
(* ------------------------------------------------------------------ *)

(* [map] fans a *fixed* task list and joins; a daemon has an
   open-ended stream (sessions arrive over time), so it needs long-lived
   workers draining a queue. Same containment rules as [map]: a task
   exception is recorded, never propagated into the worker loop — one
   crashed session must not take the daemon (or its siblings) down. *)
module Service = struct
  type t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    idle : Condition.t;
    queue : (unit -> unit) Queue.t;
    mutable closing : bool;
    mutable running : int;  (** tasks currently executing *)
    mutable executed : int;
    mutable trapped : int;  (** task exceptions contained *)
    mutable workers : unit Domain.t list;
  }

  let worker t () =
    let rec loop () =
      Mutex.lock t.mutex;
      while Queue.is_empty t.queue && not t.closing do
        Condition.wait t.nonempty t.mutex
      done;
      if Queue.is_empty t.queue then begin
        (* closing and drained *)
        Mutex.unlock t.mutex
      end
      else begin
        let task = Queue.pop t.queue in
        t.running <- t.running + 1;
        Mutex.unlock t.mutex;
        (try task () with _ ->
          Mutex.lock t.mutex;
          t.trapped <- t.trapped + 1;
          Mutex.unlock t.mutex);
        Mutex.lock t.mutex;
        t.running <- t.running - 1;
        t.executed <- t.executed + 1;
        if t.running = 0 && Queue.is_empty t.queue then
          Condition.broadcast t.idle;
        Mutex.unlock t.mutex;
        loop ()
      end
    in
    loop ()

  let create ?domains () =
    let d =
      match domains with
      | Some d -> max 1 d
      | None -> default_domains ()
    in
    (* Cap like the rewriter does: oversubscribed domains pay minor-GC
       synchronization without buying parallelism. *)
    let d = min d (Domain.recommended_domain_count ()) in
    let t =
      { mutex = Mutex.create ();
        nonempty = Condition.create ();
        idle = Condition.create ();
        queue = Queue.create ();
        closing = false;
        running = 0;
        executed = 0;
        trapped = 0;
        workers = [] }
    in
    (* Spawn-failure degradation as in [map]: a worker that cannot spawn
       only shrinks the pool. With zero workers, [submit] runs tasks
       inline so nothing is ever stuck in the queue forever. *)
    t.workers <-
      (List.init d Fun.id
      |> List.filter_map (fun _ ->
             match Domain.spawn (worker t) with
             | dom -> Some dom
             | exception _ -> None));
    t

  let workers t = List.length t.workers

  let submit t task =
    Mutex.lock t.mutex;
    if t.closing then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.Service.submit: pool is shut down"
    end;
    if t.workers = [] then begin
      (* Degraded (spawnless) pool: run inline with the same containment. *)
      t.running <- t.running + 1;
      Mutex.unlock t.mutex;
      (try task () with _ ->
        Mutex.lock t.mutex;
        t.trapped <- t.trapped + 1;
        Mutex.unlock t.mutex);
      Mutex.lock t.mutex;
      t.running <- t.running - 1;
      t.executed <- t.executed + 1;
      Mutex.unlock t.mutex
    end
    else begin
      Queue.push task t.queue;
      Condition.signal t.nonempty;
      Mutex.unlock t.mutex
    end

  let drain t =
    Mutex.lock t.mutex;
    while not (Queue.is_empty t.queue && t.running = 0) do
      Condition.wait t.idle t.mutex
    done;
    Mutex.unlock t.mutex

  let shutdown t =
    drain t;
    Mutex.lock t.mutex;
    t.closing <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers

  let executed t =
    Mutex.lock t.mutex;
    let n = t.executed in
    Mutex.unlock t.mutex;
    n

  let trapped t =
    Mutex.lock t.mutex;
    let n = t.trapped in
    Mutex.unlock t.mutex;
    n
end
