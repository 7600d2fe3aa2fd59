#!/usr/bin/env bash
# Out-of-domain engine flags (--c 1.5, --threads 0, --batch_size 0) answer
# INVALID_ARGUMENT (exit 2) with no CHECK failure on every subcommand that
# builds an engine: `topk` with each --algo, `temporal` with each --engine,
# `durable` and `stress`. `topk --k 0` is a flag-range error (exit 1).
set -uo pipefail
CLI="${BUILD_DIR:-$(dirname "$0")/../build}/tools/crashsim_cli"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
printf '1 2 0\n2 3 0\n1 3 1\n3 4 1\n1 4 2\n4 5 2\n' > "$WORK/g.tel"  # 3 snapshots
printf '1 2\n2 3\n1 3\n3 4\n1 4\n4 5\n' > "$WORK/g.el"
status=0

# expect CODE SUBCOMMAND ARGS... — runs the CLI and checks its exit code.
expect() {
  local want=$1
  shift
  "$@" 2> "$WORK/err" > /dev/null
  local code=$?
  if [[ $code -ne $want ]] || grep -q "CHECK failed" "$WORK/err"; then
    echo "FAIL: ${*:2} exited $code, want $want without a CHECK:" >&2
    cat "$WORK/err" >&2
    status=1
  fi
}

for bad in "--c 1.5" "--threads 0" "--batch_size 0"; do
  # shellcheck disable=SC2086  # $bad is a word list on purpose
  {
    for algo in crashsim probesim sling reads mc; do
      expect 2 "$CLI" topk --graph "$WORK/g.el" --source 1 --trials 10 \
        --algo "$algo" $bad
    done
    for engine in crashsim-t probesim-t sling-t reads-t; do
      expect 2 "$CLI" temporal --graph "$WORK/g.tel" --source 1 --trials 10 \
        --engine "$engine" $bad
    done
    expect 2 "$CLI" durable --graph "$WORK/g.tel" --source 1 --trials 10 $bad
    expect 2 "$CLI" stress --graph "$WORK/g.el" --clients 1 --queries 1 \
      --trials 10 $bad
  }
done
expect 1 "$CLI" topk --graph "$WORK/g.el" --source 1 --k 0
[[ $status -eq 0 ]] && echo "PASS: bad engine options answer INVALID_ARGUMENT"
exit $status
