#!/usr/bin/env bash
# Non-test line count of crates/, per crate and in total, then of the
# root package's src/ (the CLI) on its own line, outside the total.
#
# Usage: scripts/loc.sh [REV]
#
# Counts every .rs and .toml file under crates/ outside tests/ and
# benches/ directories, and every .rs file under src/; each .rs file is
# cut at its `#[cfg(test)]` `mod tests` block. Without REV it counts the working tree (tracked and
# untracked, not ignored, files); with REV it reads the files of that
# commit through `git show`, so `scripts/loc.sh HEAD~1` and
# `scripts/loc.sh` compare a change with its parent.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [ -n "$rev" ]; then
    files=$(git ls-tree -r --name-only "$rev" -- crates src)
else
    files=$(git ls-files --cached --others --exclude-standard -- crates src)
fi

# Lines of one file, up to (not including) a top-level test module.
count() {
    awk 'prev && /^mod tests/ { n--; exit }
         { prev = /^#\[cfg\(test\)\]/; n++ }
         END { print n + 0 }'
}

declare -A per_crate=()
total=0
root_src=0
while IFS= read -r path; do
    case "$path" in
    *.rs | *.toml) ;;
    *) continue ;;
    esac
    case "$path" in
    */tests/* | */benches/*) continue ;;
    esac
    if [ -n "$rev" ]; then
        n=$(git show "$rev:$path" | count)
    else
        [ -f "$path" ] || continue
        n=$(count <"$path")
    fi
    if [[ $path == src/* ]]; then
        root_src=$((root_src + n))
        continue
    fi
    crate=$(cut -d/ -f2 <<<"$path")
    per_crate[$crate]=$((${per_crate[$crate]:-0} + n))
    total=$((total + n))
done <<<"$files"

for crate in $(printf '%s\n' "${!per_crate[@]}" | sort); do
    printf '%-10s %7d\n' "$crate" "${per_crate[$crate]}"
done
printf '%-10s %7d\n' total "$total"
printf '%-10s %7d\n' src/ "$root_src"
