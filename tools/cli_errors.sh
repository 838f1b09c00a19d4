#!/bin/sh
# psi_demo input errors are typed: a malformed CSV header, an empty
# input file and an --attr naming no column must each exit with the
# documented code 5 and print exactly one line on stderr (no "internal
# error", no backtrace).
#
# Usage: cli_errors.sh path/to/psi_demo.exe
set -eu

DEMO=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

printf 'id:int,email:text\n1,alice@example.org\n' > "$dir/ok.csv"
printf 'id:int,email\n1,alice@example.org\n' > "$dir/bad_header.csv"
: > "$dir/empty.csv"

expect_bad_input() {
  name=$1
  shift
  status=0
  "$DEMO" "$@" > "$dir/out" 2> "$dir/err" || status=$?
  if [ "$status" -ne 5 ]; then
    echo "cli_errors: $name: expected exit 5, got $status" >&2
    cat "$dir/err" >&2
    exit 1
  fi
  lines=$(wc -l < "$dir/err")
  if [ "$lines" -ne 1 ]; then
    echo "cli_errors: $name: expected one line on stderr, got $lines" >&2
    cat "$dir/err" >&2
    exit 1
  fi
  if grep -q "internal error" "$dir/err"; then
    echo "cli_errors: $name: reported as an internal error" >&2
    exit 1
  fi
  echo "cli_errors: $name: exit 5: $(cat "$dir/err")"
}

expect_bad_input "malformed header" intersect --group test64 --attr email \
  --csv-s "$dir/bad_header.csv" --csv-r "$dir/ok.csv"
expect_bad_input "empty input file" intersect --group test64 --attr email \
  --csv-s "$dir/ok.csv" --csv-r "$dir/empty.csv"
expect_bad_input "unknown --attr column" intersect --group test64 --attr phone \
  --csv-s "$dir/ok.csv" --csv-r "$dir/ok.csv"
