#!/bin/sh
# Both cycle engines off the Fig. 14 grid's 1536 KiB iso-GPU point: one
# CLI run per backend, case and configuration, each diffed exactly
# against its pin.  The cases cover a working set over the buffer
# (pr-wi), a solver (cg-ca), two passes per iteration (bgs-gy) and
# SpMM (gcn-gy); the configurations are the DDR4 iso-CPU system and a
# buffer on each side of the default.  Sparsepipe adds one fused pass
# per iteration (knn-co) and an odd iteration count, whose paired
# passes end in a stream pass (pr-wi at 7 iterations).  One traced run
# per backend (knn-co on Sparsepipe, pr-ro at 4 iterations on gamma)
# hashes its Chrome trace against a pinned sha256: the trace lists
# every DRAM transaction in call order, the replayed ones included.
#
# Usage: engine_ladder.sh BUILD_DIR
#
# Dumps and trace digests land in BUILD_DIR/<backend>-ladder/ under the
# pins' file names, so regenerating the pins is a copy of those files
# into bench/baselines/.
set -eu

build_dir="${1:?usage: engine_ladder.sh BUILD_DIR}"
cli="${build_dir}/tools/sparsepipe_cli"
diff="${build_dir}/tools/metrics_diff"
baselines="$(dirname "$0")/../bench/baselines"
count=0

# configure CONFIG: the CLI flags of one configuration, into flags.
configure() {
    case "$1" in
      iso-gpu) flags="" ;;
      iso-cpu) flags="--iso-cpu" ;;
      buffer-kb-*) flags="--buffer-kb ${1#buffer-kb-}" ;;
      iters-*) flags="--iters ${1#iters-}" ;;
      *) echo "engine_ladder: unknown config $1" >&2; exit 2 ;;
    esac
}

# ladder BACKEND RUN...: RUN is CASE.CONFIG, as in pr-wi.iso-cpu.
ladder() {
    backend="$1"
    shift
    pins="${baselines}/${backend}-ladder"
    out="${build_dir}/${backend}-ladder"
    mkdir -p "${out}"
    for run in "$@"; do
        case_key="${run%%.*}"
        configure "${run#*.}"
        name="${run}.metrics.json"
        # shellcheck disable=SC2086 # flags is a word list
        "${cli}" --backend "${backend}" --app "${case_key%-*}" \
            --dataset "${case_key#*-}" ${flags} \
            --metrics-out "${out}/${name}" > /dev/null
        "${diff}" --quiet "${pins}/${name}" "${out}/${name}"
        count=$((count + 1))
    done
}

# traced BACKEND RUN...: each run's trace, hashed against its pin
# RUN.trace.sha256 (the traces run to MBs, so the pin is the digest).
traced() {
    backend="$1"
    shift
    pins="${baselines}/${backend}-ladder"
    out="${build_dir}/${backend}-ladder"
    mkdir -p "${out}"
    for run in "$@"; do
        case_key="${run%%.*}"
        configure "${run#*.}"
        name="${run}.trace.json"
        # shellcheck disable=SC2086 # flags is a word list
        "${cli}" --backend "${backend}" --app "${case_key%-*}" \
            --dataset "${case_key#*-}" ${flags} \
            --trace "${out}/${name}" > /dev/null
        (cd "${out}" && sha256sum "${name}") > "${out}/${run}.trace.sha256"
        if ! cmp -s "${pins}/${run}.trace.sha256" \
                "${out}/${run}.trace.sha256"; then
            echo "engine_ladder: ${backend} ${run}: trace differs" \
                "from its pin" >&2
            exit 1
        fi
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
traced sparsepipe knn-co.iso-gpu
traced gamma pr-ro.iters-4
echo "engine_ladder: ${count} runs match their pins"
