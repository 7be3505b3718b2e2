#!/bin/sh
# Out-of-range numeric flags are usage errors: each bad value must make
# the tool exit 2 with one stderr line naming the flag and its range,
# before it runs anything.  For the CLI the ranges are those an explore
# spec accepts for the same settings.  For the serve daemon each signed
# flag and the memory budget is checked; a daemon that got past parsing
# would bind a socket and wait for a signal, which the timeout turns
# into a failure.
#
# Usage: flag_ranges.sh BUILD_DIR cli|serve
set -u

usage="usage: flag_ranges.sh BUILD_DIR cli|serve"
build_dir="${1:?$usage}"
tool="${2:?$usage}"
err="$(mktemp)"
trap 'rm -f "$err"' EXIT
failed=0
count=0

# expect WANT ARG...: the tool run with ARG... exits 2, and its stderr
# is one line that contains WANT.
expect() {
    want="$1"
    shift
    count=$((count + 1))
    timeout 30 "$bin" "$@" > /dev/null 2> "$err"
    code=$?
    if [ "$code" -ne 2 ] || [ "$(wc -l < "$err")" -ne 1 ] ||
        ! grep -qF -- "$want" "$err"; then
        echo "flag_ranges: $tool $* exited $code, wanted 2 and" \
            "'$want'; stderr:" >&2
        cat "$err" >&2
        failed=$((failed + 1))
    fi
}

case "$tool" in
  cli)
    bin="${build_dir}/tools/sparsepipe_cli"
    expect "flag --buffer-kb wants an integer in [1, 1048576], got '-4'" \
        --app pr --dataset gy --buffer-kb -4
    expect "flag --buffer-kb wants an integer in [1, 1048576]" \
        --app pr --dataset gy --buffer-kb 9007199254740992
    expect "flag --bandwidth wants a number in [0.001, 1e+06], got '-3'" \
        --app pr --dataset gy --bandwidth -3
    expect "flag --sub-tensor wants an integer in [0, 1073741824]" \
        --app pr --dataset gy --sub-tensor -5
    expect "flag --iters wants an integer >= 0, got '-1'" \
        --app pr --dataset gy --iters -1
    ;;
  serve)
    bin="${build_dir}/tools/sparsepipe_serve"
    int_max=2147483647
    expect "flag --jobs wants an integer in [1, $int_max], got '-3'" \
        --jobs -3
    expect "flag --queue-depth wants an integer in [0, $int_max]" \
        --queue-depth -1
    expect "flag --retry-after-ms wants an integer in [0, $int_max]" \
        --retry-after-ms -1
    expect "flag --deadline-ms wants an integer >= 0, got '-1'" \
        --deadline-ms -1
    expect "flag --idle-timeout-ms wants an integer in [0, $int_max]" \
        --idle-timeout-ms 2147483648
    expect "flag --line-timeout-ms wants an integer in [0, $int_max]" \
        --line-timeout-ms -1
    expect "flag --max-requests-per-conn wants an integer >= 0" \
        --max-requests-per-conn -1
    expect "flag --memory-budget-mb wants an integer in [0, 17592186044415]" \
        --memory-budget-mb 17592186044416
    ;;
  *)
    echo "$usage" >&2
    exit 2
    ;;
esac

if [ "$failed" -ne 0 ]; then
    echo "flag_ranges: $failed of $count $tool case(s) failed" >&2
    exit 1
fi
echo "flag_ranges: $count $tool case(s) exit 2 with their range"
