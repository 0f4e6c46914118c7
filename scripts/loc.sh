#!/usr/bin/env sh
# Non-test code lines of each crate under crates/*/src, and their total.
# Run from anywhere: ./scripts/loc.sh
#
# A line counts when it is not blank, is not a `//` comment (`///` and
# `//!` docs included), sits in a file whose name does not contain
# `tests`, and comes before any column-0 `#[cfg(test)]` in its file (or
# `#![cfg(test)]`: the whole of a test-only module's file).
set -eu

cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    n=$(find "$src" -name '*.rs' ! -name '*tests*' | sort | xargs awk '
        FNR == 1 { in_test = 0 }
        /^#!?\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
