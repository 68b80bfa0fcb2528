#!/usr/bin/env bash
# Non-test, non-comment Rust lines per crate: for every `.rs` file under a
# crate's `src/`, everything before the first `#[cfg(test)]`, minus blank
# lines and lines that start with `//`. Reformatting, comment deletion and
# moving code into tests do not change what this counts as product code.
#
#   scripts/loc.sh [REPO_ROOT]     table of crates (default: this repo)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

printf '%-24s %8s\n' crate code_lines
total=0
for dir in crates/*/src src; do
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "${dir%src}Cargo.toml" | head -n 1)
    n=$(find "$dir" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }')
    printf '%-24s %8d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-24s %8d\n' total "$total"
