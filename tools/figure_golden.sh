#!/usr/bin/env bash
# Runs one figure binary with every CFIR_* knob cleared and compares its
# stdout byte for byte with the committed expected output, printing a
# unified diff on mismatch. To accept a deliberate output change, write
# the binary's stdout, under the same cleared environment, over the
# expected file in the same change and say why.
#
#   tools/figure_golden.sh <binary> <expected.txt>
set -u

bin="$1"
expected="$2"

for var in $(compgen -e); do
  case "$var" in CFIR_*) unset "$var" ;; esac
done

actual="$(mktemp)"
trap 'rm -f "$actual"' EXIT
if ! "$bin" > "$actual"; then
  echo "FAILED: $bin exited non-zero" >&2
  exit 1
fi
diff -u "$expected" "$actual"
