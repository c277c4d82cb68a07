#!/usr/bin/env bash
# Per-crate size of the non-test source: for every `crates/*/src/**/*.rs`, the
# lines before the file's first `#[cfg(test)]` — all of them, and code only
# (no blank line, no line that is only a `//` comment).
#
# Each crate's code lines are held to its ceiling in `scripts/loc-ceilings`:
# the script exits 1 when a crate exceeds its ceiling or has none. A change
# that grows a crate raises the ceiling in the same diff, and names the
# number that pays for the growth.
#
#   scripts/loc.sh [CRATE_DIR...]      default: every crate under crates/
set -euo pipefail
cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || set -- crates/*
ceilings=scripts/loc-ceilings
status=0
printf '%-18s %8s %8s %8s\n' crate lines code ceiling
for crate in "$@"; do
    name=${crate%/}
    name=${name#crates/}
    read -r lines code < <(find "$crate/src" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        { lines++ }
        !/^[[:space:]]*($|\/\/)/ { code++ }
        END { print lines + 0, code + 0 }')
    ceiling=$(awk -v name="$name" '$1 == name { print $2 }' "$ceilings")
    printf '%-18s %8d %8d %8s\n' "$name" "$lines" "$code" "${ceiling:--}"
    if [ -z "$ceiling" ]; then
        echo "loc.sh: $name has no ceiling in $ceilings" >&2
        status=1
    elif [ "$code" -gt "$ceiling" ]; then
        echo "loc.sh: $name has $code code lines, over its ceiling of $ceiling;" \
            "raise it in $ceilings and name the number that pays for it" >&2
        status=1
    fi
done
exit "$status"
