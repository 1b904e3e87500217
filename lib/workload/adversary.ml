type selector = Jumps | Heap_writes

type family = {
  name : string;
  blurb : string;
  profile : Codegen.profile;
  selector : selector;
  strip : bool;
  floor_pct : float;
  expect_pressure : bool;
}

let selector_name = function Jumps -> "jumps" | Heap_writes -> "heap-writes"

(* Shared base: big enough to give every family a few thousand patch
   sites, small enough that the trace oracle's double emulation stays in
   the tens of milliseconds per family. *)
let base name seed =
  { Codegen.default_profile with
    Codegen.name;
    seed;
    functions = 16;
    blocks_per_fn = 8;
    iterations = 60 }

let families =
  [ { name = "baseline";
      blurb = "the compiler-like default mix; the corpus control group";
      profile = base "baseline" 1001L;
      selector = Jumps;
      strip = false;
      floor_pct = 99.0;
      expect_pressure = false };
    { name = "locked-rmw";
      blurb =
        "lock-prefixed read-modify-writes: the f0 prefix byte shifts every \
         pun window by one";
      profile =
        { (base "locked-rmw" 1002L) with
          Codegen.lock_bias = 0.6;
          heap_write_bias = 0.35 };
      selector = Heap_writes;
      strip = false;
      floor_pct = 95.0;
      expect_pressure = false };
    { name = "tiny-runs";
      blurb =
        "dense strips of 2-3 byte instructions starve every jump tactic: \
         mid-strip jcc sites exhaust the rel8 victim window";
      profile =
        { (base "tiny-runs" 1003L) with
          Codegen.tiny_run_bias = 0.9;
          short_jump_bias = 0.7 };
      selector = Jumps;
      strip = false;
      floor_pct = 90.0;
      expect_pressure = true };
    { name = "tiny-writes";
      blurb =
        "the same strips, patched at their 2-byte stores instead of their \
         jumps (application A2 under starvation)";
      profile =
        { (base "tiny-writes" 1004L) with
          Codegen.tiny_run_bias = 0.9;
          small_write_bias = 0.8;
          heap_write_bias = 0.3 };
      selector = Heap_writes;
      strip = false;
      floor_pct = 84.0;
      expect_pressure = true };
    { name = "islands";
      blurb =
        "mid-function data islands: correct rewriting needs exclusion \
         ranges, or evictions corrupt checksummed data";
      profile = { (base "islands" 1005L) with Codegen.island_bias = 0.5 };
      selector = Jumps;
      strip = false;
      floor_pct = 97.0;
      expect_pressure = false };
    { name = "stripped";
      blurb =
        "no section header table at all: text discovery must fall back to \
         the executable PT_LOAD segment";
      profile = base "stripped" 1006L;
      selector = Jumps;
      strip = true;
      floor_pct = 99.0;
      expect_pressure = false };
    { name = "endbr";
      blurb =
        "CET-style endbr64 markers at every entry; anchor count is ground \
         truth the decode must reproduce";
      profile =
        { (base "endbr" 1007L) with Codegen.endbr64_entries = true };
      selector = Jumps;
      strip = false;
      floor_pct = 99.0;
      expect_pressure = false };
    { name = "pie";
      blurb =
        "position-independent load high: punned negative displacements \
         must stay canonical";
      profile = { (base "pie" 1008L) with Codegen.pie = true };
      selector = Jumps;
      strip = false;
      floor_pct = 99.0;
      expect_pressure = false };
    { name = "dso";
      blurb =
        "shared-object regime: the dynamic linker owns the space below \
         base, halving the trampoline address pool";
      profile =
        { (base "dso" 1009L) with
          Codegen.shared_object = true;
          heap_write_bias = 0.3 };
      selector = Heap_writes;
      strip = false;
      floor_pct = 95.0;
      expect_pressure = false };
    { name = "far-rel32";
      blurb =
        "a 192 KiB nop desert before a shared ret thunk: every function \
         tail carries a six-figure rel32 displacement";
      profile = { (base "far-rel32" 1010L) with Codegen.far_gap_kb = 192 };
      selector = Jumps;
      strip = false;
      floor_pct = 99.0;
      expect_pressure = false };
    { name = "alias-pad";
      blurb =
        "imm32 constants whose trailing byte is a legal prefix, directly \
         before short write sites: bait for the phantom-prefix classifier";
      profile =
        { (base "alias-pad" 1011L) with
          Codegen.alias_bias = 0.5;
          small_write_bias = 0.6;
          heap_write_bias = 0.3 };
      selector = Heap_writes;
      strip = false;
      floor_pct = 95.0;
      expect_pressure = false } ]

let find name = List.find_opt (fun f -> f.name = name) families
