#!/usr/bin/env bash
# Non-blank lines of Rust per crate, src/ and tests/ apart, then scripts/
# and the total, then every .rs file under crates/ and src/ over 800
# lines (`wc -l`, largest first): the "Counts" paragraph of a CHANGES.md
# entry in one command. It gates nothing.
set -eu
cd "$(dirname "$0")/.."

# Non-blank lines over the files `find` names (0 for none or no such dir).
count() {
    find "$@" -type f -exec cat {} + 2>/dev/null | grep -cv '^\s*$' || true
}

printf '%-14s %7s %7s\n' crate src tests
total=0
for dir in crates/* .; do
    src=$(count "$dir/src" -name '*.rs')
    tests=$(count "$dir/tests" -name '*.rs')
    [ "$dir" = . ] && name="(root)" || name=${dir#crates/}
    printf '%-14s %7d %7d\n' "$name" "$src" "$tests"
    total=$((total + src + tests))
done
scripts=$(count scripts)
printf '%-14s %7d\n' scripts/ "$scripts"
printf '%-14s %7d\n' total $((total + scripts))

echo "files over 800 lines:"
find crates src -name '*.rs' -type f -exec wc -l {} + |
    awk '$2 != "total" && $1 > 800' | sort -rn
