#!/bin/sh
# Diff the pinned output digests (test/digests.txt) against fresh runs of
# the digests program at one domain and at four, naming every entry that
# moved, appeared or disappeared. Exits non-zero if any did.
# Usage: digest_check.sh PATH/TO/digests.exe PATH/TO/digests.txt
set -eu
exe=$1
pinned=$2
status=0
for jobs in 1 4; do
  if ! "$exe" --jobs "$jobs" | awk -v jobs="$jobs" '
    # Each line is "NAME text=N DIGEST" (or "NAME skipped"/"NAME refused");
    # the name may contain spaces, so it is everything before the last
    # two fields.
    function key(line,   n, f) {
      n = split(line, f, " ")
      return n > 2 ? substr(line, 1, length(line) - length(f[n-1]) - length(f[n]) - 2) : f[1]
    }
    NR == FNR { want[key($0)] = $0; next }
    { k = key($0); got[k] = 1
      if (!(k in want)) { print "jobs " jobs ": new      " $0; bad = 1 }
      else if (want[k] != $0) { print "jobs " jobs ": moved    " k ": " want[k] " -> " $0; bad = 1 } }
    END { for (k in want) if (!(k in got)) { print "jobs " jobs ": missing  " want[k]; bad = 1 }
          exit bad }' "$pinned" -; then
    status=1
  fi
done
if [ "$status" = 0 ]; then
  echo "digest-check: $(wc -l < "$pinned") entries unchanged at jobs 1 and 4"
fi
exit "$status"
