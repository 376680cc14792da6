#!/usr/bin/env bash
# Fails (exit 1) unless README.md's knob table lists exactly the knobs the
# code reads: the set of "CFIR_*" string literals under src/, bench/ and
# examples/ must equal the set of `CFIR_*` rows of the table (lines that
# start with "| `CFIR_"). Prints a diff of the two sets on mismatch
# ("<" = read by the code but missing from README, ">" = documented but
# read nowhere). Run from anywhere; paths resolve against the repo root
# (the directory above this script).
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"

code="$(grep -rhoE '"CFIR_[A-Z0-9_]+"' "$root/src" "$root/bench" \
          "$root/examples" | tr -d '"' | sort -u)"
table="$(grep -oE '^\| `CFIR_[A-Z0-9_]+`' "$root/README.md" \
           | sed 's/^| `//; s/`$//' | sort -u)"

if ! diff <(printf '%s\n' "$code") <(printf '%s\n' "$table"); then
  echo "KNOB TABLE DRIFT: README.md knob table vs CFIR_* literals in code" >&2
  exit 1
fi
echo "knob table OK ($(printf '%s\n' "$code" | wc -l) knobs)"
