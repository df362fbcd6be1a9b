#!/usr/bin/env bash
# loc.sh — Go lines per package, non-test and test, so "least code" is a
# number each PR reports rather than a claim: the root package, each
# internal/*, each cmd/*, and benchmark (its own module; counted, never
# edited by a PR that claims a result). Lines are physical lines of the
# .go files directly in each directory (`wc -l`), comments included — the
# count a reader scrolls through. Run it in a checkout of the parent
# commit as well to get the before/after pair.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count <dir> <0 = non-test | 1 = test>: total lines of the matching .go files
  local n=0 f
  for f in "$1"/*.go; do
    [ -f "$f" ] || continue
    case "$f" in *_test.go) [ "$2" = 1 ] || continue ;; *) [ "$2" = 0 ] || continue ;; esac
    n=$((n + $(wc -l < "$f")))
  done
  echo "$n"
}

printf '%-22s %9s %9s\n' package non-test test
code_total=0 test_total=0
for d in . internal/*/ cmd/*/ benchmark; do
  d=${d%/}
  code=$(count "$d" 0) tests=$(count "$d" 1)
  [ "$((code + tests))" -gt 0 ] || continue
  name=$d; [ "$d" = . ] && name="(root)"
  printf '%-22s %9d %9d\n' "$name" "$code" "$tests"
  code_total=$((code_total + code)) test_total=$((test_total + tests))
done
printf '%-22s %9d %9d\n' total "$code_total" "$test_total"
