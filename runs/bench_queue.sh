#!/bin/sh
# Benchmark queue; artifacts land under runs/, output is appended to
# runs/bench.log (follow it with `tail -f runs/bench.log`).
#
#   sh runs/bench_queue.sh
#
# Runs from the repository root whatever the calling directory.  A run
# whose final CSV already exists is skipped, so a killed queue starts
# again at the run it lost; delete a run's directory to redo it.
#
# runs/prep_kerr_n20 runs first, alone: the measurement-stage runs read
# it.  Then two lanes share the two cores: the other preparation searches
# (two seed workers) and the measurement-stage runs.  Every process runs
# one BLAS thread.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
exec >>runs/bench.log 2>&1

# run FINAL_CSV ARGS...: run the CLI unless FINAL_CSV already exists.
run() {
    final=$1
    shift
    if [ -e "$final" ]; then
        echo "=== $(date +%H:%M:%S) skip, $final exists: $*"
        return 0
    fi
    echo "=== $(date +%H:%M:%S) $*"
    start=$(date +%s)
    # explicit: errexit is off where a caller tests run's status
    python3 -m modefisher.cli "$@" || return 1
    echo "=== $(date +%H:%M:%S) finished in $(( $(date +%s) - start ))s: $final"
}

prepare_lane() {
    for n in 20 4 8 12 16; do
        run runs/prep_jc_n$n/prepare.csv optimize --kind jc --n $n --dmax 8 --seeds 10 \
            --stage prepare --workers 2 --outdir runs/prep_jc_n$n
    done
    for n in 4 8 12 16; do
        run runs/prep_kerr_n$n/prepare.csv optimize --kind kerr --n $n --dmax 4 --seeds 10 \
            --stage prepare --workers 2 --outdir runs/prep_kerr_n$n
    done
}

measure_lane() {
    run runs/meas_kerr_n20_counting/measure.csv optimize --kind kerr --n 20 --dmax 3 \
        --seeds 10 --stage measure --prep-csv runs/prep_kerr_n20/prepare.csv \
        --measurement counting --outdir runs/meas_kerr_n20_counting
    run runs/meas_kerr_n20_homodyne/measure.csv optimize --kind kerr --n 20 --dmax 3 \
        --seeds 10 --stage measure --prep-csv runs/prep_kerr_n20/prepare.csv \
        --measurement homodyne --theta 0 --outdir runs/meas_kerr_n20_homodyne
    run runs/paired_kerr_n20/paired_plain.csv ablate --kind kerr --n 20 --dmax 6 --seeds 10 \
        --measurement homodyne --theta 0 --paired-dir runs/prep_kerr_n20/params \
        --outdir runs/paired_kerr_n20
}

echo "=== $(date +%H:%M:%S) queue start"
if ! run runs/prep_kerr_n20/prepare.csv optimize --kind kerr --n 20 --dmax 6 --seeds 10 \
        --stage prepare --outdir runs/prep_kerr_n20; then
    echo "=== $(date +%H:%M:%S) queue failed"
    exit 1
fi
prepare_lane &
prepare_pid=$!
measure_lane &
measure_pid=$!
status=0
wait $prepare_pid || status=1
wait $measure_pid || status=1
if [ $status -ne 0 ]; then
    echo "=== $(date +%H:%M:%S) queue failed"
    exit 1
fi
echo "=== $(date +%H:%M:%S) queue done"
