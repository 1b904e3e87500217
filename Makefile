# Convenience wrappers around dune. CI runs `build`, `test`, `examples`,
# `fuzz-smoke`, `fault-smoke`, `serve-smoke`, `robust-smoke`,
# `tool-smoke`, `check-smoke`, `host-smoke` and `bench-smoke`.

# The smoke targets tee their output into a log file; without pipefail a
# crashed bench/fuzz run would exit with tee's (successful) status and CI
# would go green on a failure.
SHELL := /bin/bash
.SHELLFLAGS := -e -o pipefail -c

DUNE ?= dune
SMOKE_TIMEOUT ?= 300
FUZZ_N ?= 200
FUZZ_SEED ?= 42
FAULT_N ?= 500
FAULT_RPC_N ?= 60
FAULT_SEED ?= 42

.PHONY: all build test examples digest-check bench bench-smoke fuzz-smoke fault-smoke robust-smoke serve-smoke tool-smoke check-smoke host-smoke fmt clean

all: build

build:
	$(DUNE) build

test: build
	$(DUNE) runtest

# The five end-to-end examples (examples/*.ml), each under a timeout;
# together they take a fraction of a second. cve_patch is the only caller
# of a Custom_pre template that the ladder places through T3, so its
# "via tactic T3" line is asserted.
examples: build
	{ for e in quickstart cve_patch hardening tracing comparison; do \
	  echo "=== $$e"; \
	  timeout $(SMOKE_TIMEOUT) ./_build/default/examples/$$e.exe; \
	done; } 2>&1 | tee examples_output.txt
	grep -q 'via tactic T3' examples_output.txt

# Output-byte contract: rerun test/digests.exe against the pinned
# test/digests.txt, its --verify mode against the pinned verifier
# reports in test/verify_digests.txt, its --trace mode against the
# pinned trace-oracle verdicts in test/trace_digests.txt and its --emu
# mode against the pinned emulator runs in test/emu_digests.txt, and
# name every entry that moved.
digest-check: build
	sh test/digest_check.sh _build/default/test/digests.exe test/digests.txt test/verify_digests.txt test/trace_digests.txt test/emu_digests.txt

# Full evaluation run: every table/figure, all sizes. Minutes, not for CI.
bench: build
	$(DUNE) exec bench/main.exe

# Reduced bench under a hard timeout: the experiments that exercise the
# emulator throughput path (scalability), end-to-end patched-binary
# emulation (figure4), the allocator micro-benchmark against its
# linear-scan baseline (iset), the rewriting-service throughput/caching
# run (serve) and the tool frontend's matcher x patch pairs under both
# oracles (tool), at --smoke sizes. Merges each experiment's record
# (its table's rows and the rollup of what it ran) into
# BENCH_throughput.json.
bench-smoke: build
	timeout $(SMOKE_TIMEOUT) $(DUNE) exec bench/main.exe -- --smoke scalability figure4 iset serve tool | tee bench_output.txt

# Fixed-seed differential fuzz campaign: random profile × tactic configs,
# each rewrite checked by the static verifier and the trace oracle.
# Deterministic; seconds, not minutes — safe for CI. At the default
# FUZZ_N/FUZZ_SEED the summary line must also match test/fuzz_summary.txt:
# a change that moves what the rewrites patch or what the oracles check
# moves its counts.
fuzz-smoke: build
	timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- fuzz -n $(FUZZ_N) --seed $(FUZZ_SEED) | tee fuzz_output.txt
	if [ "$(FUZZ_N)/$(FUZZ_SEED)" = "200/42" ]; then \
	  grep -E '^[0-9]+ cases, ' fuzz_output.txt | diff -u test/fuzz_summary.txt -; \
	fi

# Fixed-seed fault-injection campaign (DESIGN.md §11): random rewrite
# cases × random fault schedules; every injected fault must degrade to a
# verified output, be accounted per-site, or raise a typed error with no
# partial file. At the default FAULT_N/FAULT_RPC_N/FAULT_SEED the two
# summary lines must also match test/fault_summary.txt: a change that
# moves which allocator query a schedule refuses moves the outcome counts.
fault-smoke: build
	timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- fault -n $(FAULT_N) --seed $(FAULT_SEED) | tee fault_output.txt
	timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- fault --rpc -n $(FAULT_RPC_N) --seed $(FAULT_SEED) | tee -a fault_output.txt
	if [ "$(FAULT_N)/$(FAULT_RPC_N)/$(FAULT_SEED)" = "500/60/42" ]; then \
	  grep -E 'fault (cases|campaign):' fault_output.txt | diff -u test/fault_summary.txt -; \
	fi

# Robustness corpus: every adversarial family (lock prefixes, tiny-insn
# starvation, mid-function data islands, stripped headers, endbr64
# entries, PIE/DSO regimes, far rel32, alias padding) scored against its
# pinned pass-rate floor; exits non-zero if any family regresses. Writes
# the machine-readable matrix to robust_matrix.json. Deterministic.
robust-smoke: build
	timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- robust --json robust_matrix.json | tee robust_output.txt

# Daemon end-to-end smoke (DESIGN.md §13): boot `serve` in stdio mode with
# per-session telemetry, replay a canned five-message session (load, patch,
# emit to a file, status, shutdown), then verify the emitted binary against
# the input with the independent checker. Asserts the emit was verified,
# the checker accepts the output, and the session left an obs trace
# (serve-smoke/session-0.ndjson — CI uploads it).
serve-smoke: build
	rm -rf serve-smoke && mkdir -p serve-smoke
	$(DUNE) exec bin/e9patch_cli.exe -- generate -o serve-smoke/input.elf --functions 25 --iterations 40 --seed 7
	printf '%s\n' \
	  '{"jsonrpc":"2.0","id":1,"method":"binary","params":{"filename":"serve-smoke/input.elf"}}' \
	  '{"jsonrpc":"2.0","id":2,"method":"patch","params":{"spec":"patch jumps with counter"}}' \
	  '{"jsonrpc":"2.0","id":3,"method":"emit","params":{"filename":"serve-smoke/out.elf"}}' \
	  '{"jsonrpc":"2.0","id":4,"method":"status"}' \
	  '{"jsonrpc":"2.0","id":5,"method":"shutdown"}' \
	  > serve-smoke/session.jsonl
	timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- serve --trace-dir serve-smoke < serve-smoke/session.jsonl | tee serve_output.txt
	grep -q '"verified":true' serve_output.txt
	$(DUNE) exec bin/e9patch_cli.exe -- check serve-smoke/input.elf serve-smoke/out.elf | tee -a serve_output.txt
	test -s serve-smoke/session-0.ndjson

# Tool-frontend smoke (DESIGN.md §15): one matcher x patch pair per
# builtin (print, count, trap, empty, lowfat) plus a three-argument clean
# call trampoline and a naked call, each rewritten once with --check (the
# E9_check static verifier and the trace oracle with the instrumentation
# pages private), then `patch --template lowfat` (which injects the same
# runtime) checked by `check --dynamic` against the raw input (which
# finds that runtime in the output); all eight must print "dynamic: OK",
# and the eight "dynamic:" lines (event,
# retire, store and instruction counts) must match
# test/tool_smoke_dynamic.txt: a change that moves what the oracle
# compares moves them. Last, `patch --select M --template P` must write
# the same file as `tool -M M -P P` (one reader per rule slot) for
# `jumps|count` and `calls|call:clean record(addr,size,3)`. A generated
# input is used so the target is hermetic and deterministic.
tool-smoke: build
	rm -rf tool-smoke && mkdir -p tool-smoke
	$(DUNE) exec bin/e9patch_cli.exe -- generate -o tool-smoke/input.elf --functions 40 --iterations 80 --seed 7
	printf '%s\n' \
	  'jumps|print' \
	  'all|count' \
	  'returns|trap' \
	  'heap-writes|lowfat' \
	  'mnemonic mov and op[0].type == reg|empty' \
	  'calls|call:clean record(addr,size,3)' \
	  'returns|call:naked counter()' \
	  > tool-smoke/pairs.txt
	{ i=0; \
	while IFS='|' read -r m p; do \
	  i=$$((i+1)); \
	  echo "=== [$$i] -M $$m -P $$p"; \
	  timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- tool tool-smoke/input.elf -o tool-smoke/out$$i.elf -M "$$m" -P "$$p" --check; \
	done < tool-smoke/pairs.txt; \
	echo "=== patch --select heap-writes --template lowfat"; \
	timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- patch tool-smoke/input.elf -o tool-smoke/patch-lowfat.elf --select heap-writes --template lowfat; \
	timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- check --dynamic tool-smoke/input.elf tool-smoke/patch-lowfat.elf; } 2>&1 | tee tool_output.txt
	test "$$(grep -c '^dynamic: OK' tool_output.txt)" = 8
	grep '^dynamic:' tool_output.txt | diff -u test/tool_smoke_dynamic.txt -
	! grep -qE 'FAIL|diverged' tool_output.txt
	{ i=0; \
	for pair in 'jumps|count' 'calls|call:clean record(addr,size,3)'; do \
	  i=$$((i+1)); m=$${pair%%|*}; p=$${pair#*|}; \
	  echo "=== cmp: patch --select '$$m' --template '$$p' vs tool -M '$$m' -P '$$p'"; \
	  timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- patch tool-smoke/input.elf -o tool-smoke/same-patch$$i.elf --select "$$m" --template "$$p"; \
	  timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- tool tool-smoke/input.elf -o tool-smoke/same-tool$$i.elf -M "$$m" -P "$$p"; \
	  cmp tool-smoke/same-patch$$i.elf tool-smoke/same-tool$$i.elf; \
	  echo "same file"; \
	done; } 2>&1 | tee -a tool_output.txt

# Scale gate: a generated input of about 1.1 MB of text, patched on jumps
# (A1) and on heap writes (A2) with empty trampolines, and each output
# checked by both oracles: the static verifier (`check`) and the trace
# oracle beside it (`check --dynamic`); every patch and every check runs
# under a 20 s timeout. The rewrite, the sweep and both oracles are
# linear in the text (DESIGN.md §8.1, §12.4), so each step takes about
# half a second; a super-linear search or a quadratic verifier takes tens
# of seconds here and fails the gate.

check-smoke: build
	rm -rf check-smoke && mkdir -p check-smoke
	$(DUNE) exec bin/e9patch_cli.exe -- generate -o check-smoke/input.elf --functions 4000 --iterations 1
	{ for sel in jumps heap-writes; do \
	  echo "=== --select $$sel"; \
	  timeout 20 $(DUNE) exec bin/e9patch_cli.exe -- patch check-smoke/input.elf -o check-smoke/$$sel.elf --select $$sel --template empty; \
	  timeout 20 $(DUNE) exec bin/e9patch_cli.exe -- check check-smoke/input.elf check-smoke/$$sel.elf; \
	  timeout 20 $(DUNE) exec bin/e9patch_cli.exe -- check --dynamic check-smoke/input.elf check-smoke/$$sel.elf; \
	done; } 2>&1 | tee check_output.txt
	test "$$(grep -c '^static: OK' check_output.txt)" = 4
	test "$$(grep -c '^dynamic: OK' check_output.txt)" = 2

# Real binaries of the host: /usr/bin/true, cat and ls, each patched on
# jumps with empty trampolines twice, by `patch --select jumps --template
# empty` and by `tool -M jumps -P empty` (an empty patch keeps no state
# in the instrumentation runtime, so `tool` rewrites the file itself),
# and every output checked by the static verifier. A binary missing on
# the host prints "absent" and does not fail the target; every present
# one must patch and pass the check both ways.
# Then `patch --stub-loader /usr/bin/true` must fail with the typed
# program-header error (its headers are followed directly by .interp,
# leaving no room for the stub's header) and write no file, and so must
# `tool /usr/bin/true -M jumps -P print` (a print patch keeps state in
# the runtime, whose two program headers do not fit either).
host-smoke: build
	rm -rf host-smoke && mkdir -p host-smoke
	{ for b in true cat ls; do \
	  if [ ! -f /usr/bin/$$b ]; then echo "=== /usr/bin/$$b"; echo absent; continue; fi; \
	  echo "=== patch /usr/bin/$$b"; \
	  timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- patch /usr/bin/$$b -o host-smoke/$$b.elf --select jumps --template empty; \
	  timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- check /usr/bin/$$b host-smoke/$$b.elf; \
	  echo "=== tool /usr/bin/$$b"; \
	  timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- tool /usr/bin/$$b -o host-smoke/$$b-tool.elf -M jumps -P empty; \
	  timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- check /usr/bin/$$b host-smoke/$$b-tool.elf; \
	done; } 2>&1 | tee host_output.txt
	test "$$(grep -c '^static: OK' host_output.txt)" = "$$(( $$(grep -c '^=== ' host_output.txt) - $$(grep -c '^absent$$' host_output.txt) ))"
	{ echo "=== /usr/bin/true --stub-loader"; \
	if [ ! -f /usr/bin/true ]; then echo absent; exit 0; fi; \
	if timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- patch /usr/bin/true -o host-smoke/true-stub.elf --stub-loader --select jumps --template empty 2> host-smoke/stub.err; then \
	  echo "stub: unexpectedly patched"; exit 1; \
	fi; \
	cat host-smoke/stub.err; \
	grep -q "would overwrite content at file offset" host-smoke/stub.err; \
	test ! -e host-smoke/true-stub.elf; \
	echo "stub: refused, no output file"; } 2>&1 | tee -a host_output.txt
	{ echo "=== tool /usr/bin/true -M jumps -P print"; \
	if [ ! -f /usr/bin/true ]; then echo absent; exit 0; fi; \
	if timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- tool /usr/bin/true -o host-smoke/true-print.elf -M jumps -P print 2> host-smoke/print.err; then \
	  echo "print: unexpectedly patched"; exit 1; \
	fi; \
	cat host-smoke/print.err; \
	grep -q "the instrumentation runtime's program headers (.*) would overwrite content at file offset" host-smoke/print.err; \
	test ! -e host-smoke/true-print.elf; \
	echo "print: refused, no output file"; } 2>&1 | tee -a host_output.txt

clean:
	$(DUNE) clean
