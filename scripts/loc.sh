#!/usr/bin/env bash
# Count the non-test lines of Rust in the library crates and examples.
#
# For every `.rs` file under `crates/*/src` and `examples/`, stop at the
# first `#[cfg(test)]` line (unit tests sit at the end of a file), then
# count the lines that are neither blank nor `//` comments (doc comments
# included). Prints one number, the total.
#
# Usage: scripts/loc.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src examples -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }
'
