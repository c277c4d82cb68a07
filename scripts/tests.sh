#!/usr/bin/env bash
# Runs the tests of one cargo test target that match any of the filters,
# after checking that each filter names at least one of its tests (a filter
# that matches nothing would otherwise pass silently):
#
#   scripts/tests.sh "CARGO_ARGS" FILTER...
#
# CARGO_ARGS is one string of `cargo test` arguments, split into words: the
# profile and the target, e.g. "--release -p ewh-exec --test prop_spill".
# A filter matches a test whose name contains it, as `cargo test` filters do.
# The target's test list is read whole before any filter is checked.
set -euo pipefail

usage='usage: scripts/tests.sh "CARGO_ARGS" FILTER...'
[ "$#" -ge 2 ] || { echo "$usage" >&2; exit 2; }
read -ra args <<< "$1"
shift

listed="$(cargo test -q "${args[@]}" -- --list)"
names=$'\n'
while IFS= read -r line; do
    if [[ $line == *': test' ]]; then
        names+="${line%: test}"$'\n'
    fi
done <<< "$listed"
for filter in "$@"; do
    if [[ $names != *"$filter"* ]]; then
        echo "no test in '${args[*]}' matches '$filter'" >&2
        exit 1
    fi
done
cargo test -q "${args[@]}" -- "$@"
