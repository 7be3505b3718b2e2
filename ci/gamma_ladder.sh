#!/bin/sh
# Gamma off the Fig. 14 grid's 1536 KiB iso-GPU point: one CLI run per
# case and configuration, each diffed exactly against its pin.  The
# cases cover a working set over the buffer (pr-wi), a solver
# (cg-ca), two passes per iteration (bgs-gy) and SpMM (gcn-gy); the
# configurations are the DDR4 iso-CPU system and a buffer on each side
# of the default.
#
# Usage: gamma_ladder.sh BUILD_DIR
#
# Dumps land in BUILD_DIR/gamma-ladder/ under the pins' file names, so
# regenerating the pins is a copy of that directory into
# bench/baselines/gamma-ladder/.
set -eu

build_dir="${1:?usage: gamma_ladder.sh BUILD_DIR}"
cli="${build_dir}/tools/sparsepipe_cli"
diff="${build_dir}/tools/metrics_diff"
pins="$(dirname "$0")/../bench/baselines/gamma-ladder"
out="${build_dir}/gamma-ladder"
mkdir -p "${out}"

for case in pr-wi cg-ca bgs-gy gcn-gy; do
    app="${case%-*}"
    dataset="${case#*-}"
    for config in iso-cpu buffer-kb-256 buffer-kb-24576; do
        case "${config}" in
          iso-cpu) flags="--iso-cpu" ;;
          *) flags="--buffer-kb ${config#buffer-kb-}" ;;
        esac
        name="${case}.${config}.metrics.json"
        # shellcheck disable=SC2086 # flags is a word list
        "${cli}" --backend gamma --app "${app}" --dataset "${dataset}" \
            ${flags} --metrics-out "${out}/${name}" > /dev/null
        "${diff}" --quiet "${pins}/${name}" "${out}/${name}"
    done
done
echo "gamma_ladder: 12 runs match their pins"
