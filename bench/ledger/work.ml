(* What a workload is, and the loop that measures one.

   A workload turns a seed into inputs (the benchmark's own cost, never
   gated), then into a set-up closure the ledger times five times. The
   set-up yields a fixed list of steps — one pass — and an oracle run
   after the loop. The loop runs a fixed number of whole passes, the same
   on every commit, so every side of a comparison draws the same number
   of samples. *)

type batch = {
  lanes : float list list;
      (** per client, its sessions' latencies in the pass's fixed order,
          seconds *)
  attempted : int;
  failures : string list;
}

type step =
  | Op of { label : string; run : unit -> unit }
      (** One operation, timed whole; an exception fails it. *)
  | Batch of (unit -> batch)
      (** Many sessions served together (a daemon pass). *)

type report = {
  failures : string list;  (** each oracle rejection fails one op *)
  patched : int;  (** selected sites patched, over the outputs *)
  selected : int;
  sizes : (int * int) list;  (** (input, output) file bytes, one per output *)
  cycles : (int * int) list;  (** emulated cycles (original, patched) *)
  serial_ref_s : float;
      (** one pass's unsharded serial tactic search, replayed from
          outside (traced runs; 0 where no rewrite is timed) *)
}

type instance = { steps : step array; finish : trace:bool -> report }

type t = {
  name : string;
  passes : int;
      (** whole passes at the declared run length; with set-up and oracles
          they fill most of it on the reference box *)
  generate : int -> unit -> instance;
}

let now = Unix.gettimeofday

let timed f =
  let t = now () in
  let r = f () in
  (now () -. t, r)

(* {1 The clock}

   On the 2-vCPU reference VM the load of other guests on the host moves
   the speed of this one: the best time of one fixed op drifts by up to
   30% over minutes, and within a run the same loop switches between two
   speeds about 1.4x apart. A fixed integer loop owned by the benchmark,
   which no change to the program touches, drifts with it. Every timing
   is reported at the reference clock: scaled by [reference_s] over the
   loop's time in the run, taken as the 10th percentile of its samples
   (the fast phase the ops' best times come from, without trusting one
   lucky sample). On the reference box, across 25 s windows over ten
   minutes, this cut the spread of a 256 KB rewrite's best time from 4.5%
   to 1.1%, and of a tool op's from 4.2% to 2.3%. (A dependent walk
   through memory tracked the drift as well within one process, but its
   speed depends on where the host places its pages, which changes from
   process to process.) *)

let spin () =
  let s = ref 0 in
  for i = 1 to 3_000_000 do
    s := !s + ((i * i) lxor (!s lsr 3))
  done;
  ignore (Sys.opaque_identity !s)

(* The loop's time on the reference box, rounded. *)
let reference_s = 0.0045
let clock_samples = ref []
let last_tick = ref neg_infinity

(* Times the loop when a quarter second has passed since it last ran, so
   samples spread evenly over the run at about 2% of its time. *)
let tick () =
  if now () -. !last_tick >= 0.25 then begin
    let dt, () = timed spin in
    clock_samples := dt :: !clock_samples;
    last_tick := now ()
  end

let clock () = Stat.percentile !clock_samples 0.1

(* A time measured in this run, at the reference clock. *)
let at_reference t = t *. reference_s /. clock ()

(* {1 The loop} *)

(* A set-up, timed after a full collection: one taken mid-run would
   otherwise pay for collecting what the ops before it left behind. *)
let time_setup f =
  tick ();
  Gc.full_major ();
  timed f

type run = {
  samples : float list list list array;
      (** per step, one per sample: the latencies it served, per client
          (an op is one client with one latency), seconds *)
  attempted : int;
  failures : string list;
  setups : float list;
  passes_run : int;
}

(* Runs [passes] whole passes, stopping early, and failing, once more than
   [cap] seconds have gone by at the end of a pass. Each pass starts from
   a collected heap, as if from a fresh process, so that the garbage one
   pass leaves does not move the next one's memory peak. [resetups] more
   set-ups are timed between steps, evenly spread over the loop, so that
   set-up time is sampled across the run rather than in one burst. *)
let loop ?(resetup = ignore) ?(resetups = 0) inst ~passes ~cap =
  let n = Array.length inst.steps in
  let total = passes * n in
  let samples = Array.make n [] in
  let att = ref 0 and fails = ref [] and setups = ref [] in
  let i = ref 0 and resetups_done = ref 0 and over = ref false in
  let start = now () in
  while !i < total && not !over do
    while !resetups_done < resetups && (!resetups_done + 1) * total / (resetups + 1) <= !i do
      incr resetups_done;
      setups := fst (time_setup resetup) :: !setups
    done;
    let k = !i mod n in
    if k = 0 then Gc.full_major ();
    tick ();
    (match inst.steps.(k) with
    | Op { label; run } -> (
        incr att;
        let t = now () in
        match Probe.op run with
        | () ->
            let dt = now () -. t in
            samples.(k) <- [ [ dt ] ] :: samples.(k)
        | exception e ->
            fails := Printf.sprintf "%s: %s" label (Printexc.to_string e) :: !fails)
    | Batch run -> (
        match run () with
        | b ->
            samples.(k) <- b.lanes :: samples.(k);
            att := !att + b.attempted;
            fails := List.rev_append b.failures !fails
        | exception e ->
            incr att;
            fails := Printf.sprintf "pass %d: %s" (!i / n) (Printexc.to_string e) :: !fails));
    incr i;
    if !i mod n = 0 && now () -. start > cap then over := true
  done;
  if !over then
    fails :=
      Printf.sprintf "timed loop took over %gs: %d of %d passes" cap (!i / n) passes
      :: !fails;
  { samples; attempted = !att; failures = !fails; setups = !setups; passes_run = !i / n }

(* Timings are best-of-N over the fixed passes: each op's fastest time,
   and each session's fastest latency (a pass serves the same sessions in
   the same order). Within a run the box switches between its two speeds
   in phases of a fraction of a second to several seconds, so a median
   reports how much of the run fell into slow phases; the fastest sample
   reports the program. A step that never succeeded has no sample. *)
let best r =
  Array.map
    (function
      | [] -> None
      | s :: rest -> Some (List.fold_left (List.map2 (List.map2 min)) s rest))
    r.samples

(* One pass over the fixed op list at the best speed: per step, the
   slowest client's summed latencies. *)
let wall_s r =
  Array.fold_left
    (fun acc -> function
      | None -> acc
      | Some lanes ->
          acc +. List.fold_left (fun m l -> max m (List.fold_left ( +. ) 0.0 l)) 0.0 lanes)
    0.0 (best r)

let latencies r =
  Array.fold_left
    (fun acc -> function None -> acc | Some lanes -> List.concat lanes @ acc)
    [] (best r)

let samples r = Array.fold_left (fun acc s -> acc + List.length s) 0 r.samples

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      go ())
