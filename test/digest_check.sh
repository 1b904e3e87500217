#!/bin/sh
# Diff the pinned output digests (test/digests.txt) against a fresh run of
# the digests program, and, given a third
# argument, the pinned verifier reports (test/verify_digests.txt)
# against a fresh `digests.exe --verify`, given a fourth, the
# pinned trace-oracle verdicts (test/trace_digests.txt) against a fresh
# `digests.exe --trace`, and given a fifth, the pinned emulator runs
# (test/emu_digests.txt) against a fresh `digests.exe --emu`, naming
# every entry that moved, appeared or disappeared. Exits non-zero if
# any did.
# Usage: digest_check.sh PATH/TO/digests.exe PATH/TO/digests.txt
#          [PATH/TO/verify_digests.txt [PATH/TO/trace_digests.txt
#          [PATH/TO/emu_digests.txt]]]
set -eu
exe=$1
pinned=$2
verify_pinned=${3:-}
trace_pinned=${4:-}
emu_pinned=${5:-}
status=0
# compare LABEL PINNED ARGS...: run the program with ARGS, diff by name.
compare() {
  label=$1
  file=$2
  shift 2
  "$exe" "$@" | awk -v label="$label" '
    # Each line is "NAME FIELD DIGEST" (or "NAME skipped"/"NAME refused",
    # or "NAME error MESSAGE"); the name may contain spaces, so it is
    # everything before the last two fields, or before " error ".
    function key(line,   n, f) {
      if (match(line, / error /)) return substr(line, 1, RSTART - 1)
      n = split(line, f, " ")
      return n > 2 ? substr(line, 1, length(line) - length(f[n-1]) - length(f[n]) - 2) : f[1]
    }
    NR == FNR { want[key($0)] = $0; next }
    { k = key($0); got[k] = 1
      if (!(k in want)) { print label ": new      " $0; bad = 1 }
      else if (want[k] != $0) { print label ": moved    " k ": " want[k] " -> " $0; bad = 1 } }
    END { for (k in want) if (!(k in got)) { print label ": missing  " want[k]; bad = 1 }
          exit bad }' "$file" -
}
if compare "digests" "$pinned"; then
  echo "digest-check: $(wc -l < "$pinned") entries unchanged"
else
  status=1
fi
if [ -n "$verify_pinned" ]; then
  if compare "verify" "$verify_pinned" --verify; then
    echo "digest-check: $(wc -l < "$verify_pinned") verifier reports unchanged"
  else
    status=1
  fi
fi
if [ -n "$trace_pinned" ]; then
  if compare "trace" "$trace_pinned" --trace; then
    echo "digest-check: $(wc -l < "$trace_pinned") trace verdicts unchanged"
  else
    status=1
  fi
fi
if [ -n "$emu_pinned" ]; then
  if compare "emu" "$emu_pinned" --emu; then
    echo "digest-check: $(wc -l < "$emu_pinned") emulator runs unchanged"
  else
    status=1
  fi
fi
exit "$status"
