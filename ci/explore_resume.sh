#!/bin/sh
# The sweep front door end to end: sweep examples/explore/nightly.spec
# into a fresh dataset under BUILD_DIR, then resume it.  The sweep
# must report failed=0, and the resume ran=0 and rows_appended=0:
# every row landed once, and a completed sweep resumes to nothing.
#
# Usage: explore_resume.sh BUILD_DIR
#
# Registered as the `explore-sweep-resume` ctest.
set -eu

build_dir="${1:?usage: explore_resume.sh BUILD_DIR}"
explore="${build_dir}/tools/sparsepipe_explore"
spec="$(dirname "$0")/../examples/explore/nightly.spec"
out="${build_dir}/explore-sweep-resume.jsonl"
rm -f "${out}" "${out}.journal"

# A failed job exits 1, which set -e turns into a failed test.
sweep="$("${explore}" --spec "${spec}" --out "${out}" --jobs 2)"
echo "${sweep}"
case "${sweep}" in
    *" failed=0 "*) ;;
    *) echo "explore_resume: no failed=0 in the sweep summary" >&2
       exit 1 ;;
esac

resume="$("${explore}" --spec "${spec}" --out "${out}" --resume \
    --jobs 2)"
echo "${resume}"
case "${resume}" in
    *" ran=0 "*" rows_appended=0 "*) ;;
    *) echo "explore_resume: the resume recomputed work" >&2
       exit 1 ;;
esac
