#!/bin/sh
# Both cycle engines off the Fig. 14 grid's 1536 KiB iso-GPU point: one
# CLI run per backend, case and configuration, each diffed exactly
# against its pin.  The cases cover a working set over the buffer
# (pr-wi), a solver (cg-ca), two passes per iteration (bgs-gy) and
# SpMM (gcn-gy); the configurations are the DDR4 iso-CPU system and a
# buffer on each side of the default.  Sparsepipe adds one fused pass
# per iteration (knn-co) and an odd iteration count, whose paired
# passes end in a stream pass (pr-wi at 7 iterations).
#
# Usage: engine_ladder.sh BUILD_DIR
#
# Dumps land in BUILD_DIR/<backend>-ladder/ under the pins' file names,
# so regenerating the pins is a copy of those directories into
# bench/baselines/.
set -eu

build_dir="${1:?usage: engine_ladder.sh BUILD_DIR}"
cli="${build_dir}/tools/sparsepipe_cli"
diff="${build_dir}/tools/metrics_diff"
baselines="$(dirname "$0")/../bench/baselines"
count=0

# ladder BACKEND RUN...: RUN is CASE.CONFIG, as in pr-wi.iso-cpu.
ladder() {
    backend="$1"
    shift
    pins="${baselines}/${backend}-ladder"
    out="${build_dir}/${backend}-ladder"
    mkdir -p "${out}"
    for run in "$@"; do
        case_key="${run%%.*}"
        config="${run#*.}"
        case "${config}" in
          iso-cpu) flags="--iso-cpu" ;;
          buffer-kb-*) flags="--buffer-kb ${config#buffer-kb-}" ;;
          iters-*) flags="--iters ${config#iters-}" ;;
          *) echo "engine_ladder: unknown config ${config}" >&2; exit 2 ;;
        esac
        name="${run}.metrics.json"
        # shellcheck disable=SC2086 # flags is a word list
        "${cli}" --backend "${backend}" --app "${case_key%-*}" \
            --dataset "${case_key#*-}" ${flags} \
            --metrics-out "${out}/${name}" > /dev/null
        "${diff}" --quiet "${pins}/${name}" "${out}/${name}"
        count=$((count + 1))
    done
}

# runs CASE...: each case at every configuration.
runs() {
    for case_key in "$@"; do
        for config in iso-cpu buffer-kb-256 buffer-kb-24576; do
            echo "${case_key}.${config}"
        done
    done
}

# shellcheck disable=SC2046 # one word per run
ladder gamma $(runs pr-wi cg-ca bgs-gy gcn-gy)
# shellcheck disable=SC2046
ladder sparsepipe $(runs pr-wi cg-ca bgs-gy gcn-gy knn-co) pr-wi.iters-7
echo "engine_ladder: ${count} runs match their pins"
