#!/usr/bin/env bash
# check_docs.sh — assert the README's flag tables match the actual flag
# sets of mce and mced, in both directions:
#
#   * every flag the binary defines (flag.FlagSet output via -h) must
#     appear as `-flag` in the README section for that tool;
#   * every `-flag` the README section documents must exist in the binary;
#
# that every repository document (`NAME.md`) a .go file, README.md or
# ARCHITECTURE.md names exists somewhere in the repository, and that every
# test DESIGN.md names as a guard (`TestName`) is declared by some
# `func TestName(` in a _test.go file.
#
# Run by the CI lint job; run locally with ./scripts/check_docs.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

check() {
  local tool=$1 section=$2
  local bin actual documented
  bin=$(mktemp -t "check_docs_${tool}.XXXXXX")
  go build -o "$bin" "./cmd/$tool"
  # flag.PrintDefaults writes "  -name ..." lines (one per flag) to stderr
  # when -h is passed; the exit status 2 is expected (hence the || true
  # under set -e -o pipefail).
  actual=$("$bin" -h 2>&1 | awk '/^  -/{print $1}' | sort -u || true)
  rm -f "$bin"
  if [ -z "$actual" ]; then
    echo "check_docs: could not extract any flags from $tool -h" >&2
    fail=1
    return
  fi
  # README flags: the `-flag` tokens between the section heading and the
  # next heading.
  documented=$(awk -v sec="$section" '
    index($0, sec) == 1 { insec = 1; next }
    insec && /^#/       { insec = 0 }
    insec               { print }
  ' README.md | grep -oE '`-[a-z-]+`' | tr -d '`' | sort -u || true)
  if [ -z "$documented" ]; then
    echo "check_docs: README section \"$section\" not found or empty" >&2
    fail=1
    return
  fi
  local f
  for f in $actual; do
    if ! grep -qx -- "$f" <<<"$documented"; then
      echo "check_docs: $tool defines $f but the README section \"$section\" does not document it" >&2
      fail=1
    fi
  done
  for f in $documented; do
    if ! grep -qx -- "$f" <<<"$actual"; then
      echo "check_docs: README documents $f under \"$section\" but $tool does not define it" >&2
      fail=1
    fi
  done
}

check mce '### `mce` flags'
check mced '### `mced` flags'

# Documents named by the sources and the two top-level guides. A name
# resolves when a file of that name exists anywhere in the checkout.
prune=(-path ./.git -prune -o -path ./.bench_build -prune -o)
docs=$(find . "${prune[@]}" -name '*.md' -print | sed 's|.*/||' | sort -u)
named=$({ find . "${prune[@]}" -name '*.go' -print; echo README.md; echo ARCHITECTURE.md; } |
  xargs grep -ohE '[A-Za-z0-9_][A-Za-z0-9_-]*\.md\b' | sort -u || true)
for d in $named; do
  if ! grep -qx -- "$d" <<<"$docs"; then
    echo "check_docs: $d is named by $(
      { find . "${prune[@]}" -name '*.go' -print; echo ./README.md; echo ./ARCHITECTURE.md; } |
        xargs grep -lE "(^|[^A-Za-z0-9_-])$d" | tr '\n' ' '
    )but does not exist" >&2
    fail=1
  fi
done

# Tests DESIGN.md names as guards: each back-quoted `TestName` must be
# declared by some _test.go file.
tests=$(grep -oE '`Test[A-Za-z0-9_]+`' DESIGN.md | tr -d '`' | sort -u || true)
declared=$(find . "${prune[@]}" -name '*_test.go' -print |
  xargs grep -ohE '^func Test[A-Za-z0-9_]+\(' | sed 's/^func //; s/($//' | sort -u || true)
for t in $tests; do
  if ! grep -qx -- "$t" <<<"$declared"; then
    echo "check_docs: DESIGN.md names $t, but no _test.go declares func $t(" >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "check_docs: README flag tables match the mce/mced flag sets; every named document and test exists"
fi
exit "$fail"
