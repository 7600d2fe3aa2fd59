#!/usr/bin/env bash
# `crashsim_cli temporal` and `durable` answer a bad snapshot interval with
# the INVALID_ARGUMENT exit code (2) and no CHECK failure: an inverted
# interval, an end past the last snapshot, a begin past it with --stats, and
# a negative durable --floor.
set -uo pipefail
CLI="${BUILD_DIR:-$(dirname "$0")/../build}/tools/crashsim_cli"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
printf '1 2 0\n2 3 0\n1 3 1\n3 4 1\n1 4 2\n4 5 2\n' > "$WORK/g.tel"  # 3 snapshots
status=0
for args in "temporal --begin 2 --end 1" "temporal --end 9" \
            "temporal --begin 7 --end 9 --stats" "durable --begin 2 --end 1" \
            "durable --end 9" "durable --floor -1"; do
  # shellcheck disable=SC2086  # $args is a word list on purpose
  "$CLI" $args --graph "$WORK/g.tel" --source 1 --trials 10 \
    2> "$WORK/err" > /dev/null
  code=$?
  if [[ $code -ne 2 ]] || grep -q "CHECK failed" "$WORK/err"; then
    echo "FAIL: $args exited $code, want 2 without a CHECK:" >&2
    cat "$WORK/err" >&2
    status=1
  fi
done
[[ $status -eq 0 ]] && echo "PASS: bad intervals answer INVALID_ARGUMENT"
exit $status
