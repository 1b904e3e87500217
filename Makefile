# Convenience wrappers around dune. CI runs `build`, `test`, `fuzz-smoke`,
# `bench-smoke`.

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

# Domains per rewrite for serve-smoke's daemon (`serve -j`). Output bytes
# are jobs-invariant, so CI runs the target at 1 and 4 and diffs nothing
# but the clock.
SERVE_JOBS ?= 1

# Domain count for the rewriter's linear-sweep decode in the smoke
# targets. Empty means the binary's own default (serial, or the E9_JOBS
# environment variable). The outputs are jobs-invariant by construction,
# so CI runs the same targets under BENCH_JOBS=1 and BENCH_JOBS=4 and
# expects identical results.
BENCH_JOBS ?=
BENCH_JOBS_FLAG = $(if $(BENCH_JOBS),--jobs $(BENCH_JOBS))

.PHONY: all build test digest-check bench bench-smoke fuzz-smoke fault-smoke robust-smoke serve-smoke tool-smoke check-smoke host-smoke fmt clean

all: build

build:
	$(DUNE) build

test: build
	$(DUNE) runtest

# Output-byte contract: rerun test/digests.exe at jobs 1 and 4 against the
# pinned test/digests.txt, and its --verify mode against the pinned
# verifier reports in test/verify_digests.txt, and name every entry that
# moved.
digest-check: build
	sh test/digest_check.sh _build/default/test/digests.exe test/digests.txt test/verify_digests.txt

# Full evaluation run: every table/figure, all sizes. Minutes, not for CI.
bench: build
	$(DUNE) exec bench/main.exe

# Reduced bench under a hard timeout: the experiments that exercise the
# emulator throughput path (scalability), end-to-end patched-binary
# emulation (figure4), the allocator micro-benchmark against its
# linear-scan baseline (iset), and the rewriting-service
# throughput/caching run (serve), at --smoke sizes. Merges each
# experiment's record into BENCH_throughput.json.
bench-smoke: build
	timeout $(SMOKE_TIMEOUT) $(DUNE) exec bench/main.exe -- --smoke $(BENCH_JOBS_FLAG) scalability figure4 iset serve | tee bench_output.txt

# Fixed-seed differential fuzz campaign: random profile × tactic configs,
# each rewrite checked by the static verifier and the trace oracle.
# Deterministic; seconds, not minutes — safe for CI.
fuzz-smoke: build
	timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- fuzz -n $(FUZZ_N) --seed $(FUZZ_SEED) | tee fuzz_output.txt

# Fixed-seed fault-injection campaign (DESIGN.md §11): random rewrite
# cases × random fault schedules; every injected fault must degrade to a
# verified output, be accounted per-site, or raise a typed error with no
# partial file — byte-identically across domain counts. CI runs this
# under E9_JOBS=1 and E9_JOBS=4.
fault-smoke: build
	timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- fault -n $(FAULT_N) --seed $(FAULT_SEED) | tee fault_output.txt
	timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- fault --rpc -n $(FAULT_RPC_N) --seed $(FAULT_SEED) | tee -a fault_output.txt

# Robustness corpus: every adversarial family (lock prefixes, tiny-insn
# starvation, mid-function data islands, stripped headers, endbr64
# entries, PIE/DSO regimes, far rel32, alias padding) scored against its
# pinned pass-rate floor; exits non-zero if any family regresses. Writes
# the machine-readable matrix to robust_matrix.json. Deterministic and
# jobs-invariant; CI runs it under E9_JOBS=1 and E9_JOBS=4.
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
	timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- serve -j $(SERVE_JOBS) --trace-dir serve-smoke < serve-smoke/session.jsonl | tee serve_output.txt
	grep -q '"verified":true' serve_output.txt
	$(DUNE) exec bin/e9patch_cli.exe -- check serve-smoke/input.elf serve-smoke/out.elf | tee -a serve_output.txt
	test -s serve-smoke/session-0.ndjson

# Tool-frontend smoke (DESIGN.md §15): one matcher x patch pair per
# builtin (print, count, trap, empty, lowfat) plus a three-argument clean
# call trampoline, each rewritten at jobs 1 and jobs 4 with --check (the
# E9_check static verifier and the trace oracle with the instrumentation
# pages private), and the two outputs byte-compared. A generated input is
# used so the target is hermetic and deterministic.
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
	  > tool-smoke/pairs.txt
	{ i=0; \
	while IFS='|' read -r m p; do \
	  i=$$((i+1)); \
	  echo "=== [$$i] -M $$m -P $$p"; \
	  timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- tool tool-smoke/input.elf -o tool-smoke/out$$i.j1.elf -M "$$m" -P "$$p" -j 1 --check; \
	  timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- tool tool-smoke/input.elf -o tool-smoke/out$$i.j4.elf -M "$$m" -P "$$p" -j 4; \
	  cmp tool-smoke/out$$i.j1.elf tool-smoke/out$$i.j4.elf; \
	  echo "jobs 1 vs 4: byte-identical"; \
	done < tool-smoke/pairs.txt; } 2>&1 | tee tool_output.txt
	grep -q 'dynamic: OK' tool_output.txt
	test "$$(grep -c 'byte-identical' tool_output.txt)" = 6
	! grep -qE 'FAIL|diverged' tool_output.txt

# Verifier scale gate: a generated input of about 1.1 MB of text, patched
# on jumps (A1) and on heap writes (A2) with empty trampolines, and each
# output checked by the static verifier under a 20 s timeout. The
# verifier is linear in the text (DESIGN.md §8.1), so each check takes
# about a second; a quadratic verifier takes tens of seconds here and
# fails the gate.

check-smoke: build
	rm -rf check-smoke && mkdir -p check-smoke
	$(DUNE) exec bin/e9patch_cli.exe -- generate -o check-smoke/input.elf --functions 4000 --iterations 1
	{ for sel in jumps heap-writes; do \
	  echo "=== --select $$sel"; \
	  timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- patch check-smoke/input.elf -o check-smoke/$$sel.elf --select $$sel --template empty $(BENCH_JOBS_FLAG); \
	  timeout 20 $(DUNE) exec bin/e9patch_cli.exe -- check check-smoke/input.elf check-smoke/$$sel.elf; \
	done; } 2>&1 | tee check_output.txt
	test "$$(grep -c '^static: OK' check_output.txt)" = 2

# Real binaries of the host: /usr/bin/true, cat and ls, each patched on
# jumps with empty trampolines and the output checked by the static
# verifier. A binary missing on the host prints "absent" and does not
# fail the target; every present one must patch and pass the check.
host-smoke: build
	rm -rf host-smoke && mkdir -p host-smoke
	{ for b in true cat ls; do \
	  echo "=== /usr/bin/$$b"; \
	  if [ ! -f /usr/bin/$$b ]; then echo absent; continue; fi; \
	  timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- patch /usr/bin/$$b -o host-smoke/$$b.elf --select jumps --template empty $(BENCH_JOBS_FLAG); \
	  timeout $(SMOKE_TIMEOUT) $(DUNE) exec bin/e9patch_cli.exe -- check /usr/bin/$$b host-smoke/$$b.elf; \
	done; } 2>&1 | tee host_output.txt
	test "$$(grep -c '^static: OK' host_output.txt)" = "$$(( $$(grep -c '^=== ' host_output.txt) - $$(grep -c '^absent$$' host_output.txt) ))"

clean:
	$(DUNE) clean
