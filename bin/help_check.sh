#!/bin/sh
# Render the --help=plain page of the CLI and of every subcommand it lists,
# and fail if any page carries a "cmdliner error": cmdliner only reports a
# malformed doc string when the page is printed.
# Usage: help_check.sh PATH/TO/e9patch_cli.exe
set -eu
exe=$1
cmds=$("$exe" --help=plain |
  sed -n '/^COMMANDS/,/^[A-Z]/s/^       \([a-z][a-z-]*\) .*/\1/p')
if [ "$(echo "$cmds" | wc -w)" -lt 10 ]; then
  echo "help_check: subcommand list not found in --help=plain" >&2
  exit 1
fi
out=$({
  "$exe" --help=plain
  for c in $cmds; do "$exe" "$c" --help=plain; done
} 2>&1)
if printf '%s\n' "$out" | grep 'cmdliner error'; then exit 1; fi
