#!/usr/bin/env bash
# Per-crate size of the non-test source: for every `crates/*/src/**/*.rs`, the
# lines before the file's first `#[cfg(test)]` — all of them, and code only
# (no blank line, no line that is only a `//` comment).
#
#   scripts/loc.sh [CRATE_DIR...]      default: every crate under crates/
set -euo pipefail
cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || set -- crates/*
printf '%-18s %8s %8s\n' crate lines code
for crate in "$@"; do
    find "$crate/src" -name '*.rs' -print0 | xargs -0 awk -v crate="${crate#crates/}" '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        { lines++ }
        !/^[[:space:]]*($|\/\/)/ { code++ }
        END { printf "%-18s %8d %8d\n", crate, lines, code }'
done
