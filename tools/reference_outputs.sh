#!/bin/sh
# Write the reference outputs of this checkout's package to OUTDIR, one file per
# command.  Byte identity between two checkouts (or two --jobs values) is then
#
#     tools/reference_outputs.sh /tmp/a && other/tools/reference_outputs.sh /tmp/b
#     diff -r /tmp/a /tmp/b
#
# The rho-sweep command is the benchmark's selectivity sweep at seed 0; it is
# written at --jobs 1 and --jobs 2, and the two files must be identical.  So
# is the three-chunk trace (1,300 trials: two chunks of 512 and one of 276),
# which sums its rows across chunk boundaries, with 24 steps and with none,
# and so is the multi-group sweep: rho-sweep is a single group, while here 18
# groups stop in chunks 0, 1, 3 and 5, so at --jobs 2 a group's chunks enter
# the pool while the group before it still has chunks in flight.
# The two 128x128 commands are the benchmark's mmse-128 and trace-128 cells
# at fewer trials; they run the search in blocks of a few trials.
# The commands after it are cheap runs of each way a setting can be given: a
# --config file, MIMO_SLAS_SEED, a preset with overriding flags, --format json.
# The config files they read are written to OUTDIR as well.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
out=$1
mkdir -p "$out"

run() {
    PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" python3 -m mimo_slas.cli "$@"
}

cli() {
    name=$1
    shift
    run "$@" --out "$out/$name.csv" >/dev/null
}

cli ber-snr-8x8 ber-snr --nt 8 --nr 8 --detector all --las both \
    --snr-list=-5:5:20 --trials 3000 --min-errors 200 --seed 3
cli ber-rho-16 ber-rho --n-list 16 --snr-list 10 --rho-list 0.8,0.9,1.0 \
    --steps 48 --trials 2000 --min-errors 100 --seed 1 --jobs 2
cli trace-32-mmse trace --nt 32 --nr 32 --snr-list 10 --rho-list 0.9,1.0 \
    --steps 96 --trials 200 --detector mmse
cli flops flops --n-list 1,2,4,8,16,32,64,128 --steps-list 4,128 --seed 0
# with no search steps the search model is 0 while the count is not: the
# n_f = 0 row's relative error is inf and its verdict DIVERGENT
cli flops-steps0 flops --n-list 2 --steps-list 0,4 --seed 0
cli ber-snr-zf-singular ber-snr --nt 4 --nr 2 --detector zf --snr-list 0,10 \
    --las both --trials 200 --seed 0
# MMSE on the same rank-deficient 4x2 channels.  At 60 dB the regularization
# n0/es proves that the Cholesky check passes, and it is skipped; at 120 dB
# the check runs and fails, and Gauss-Jordan accepts every trial the cell
# reaches before its error floor; at 140 dB Gauss-Jordan aborts every trial
cli ber-snr-mmse-shift ber-snr --nt 4 --nr 2 --detector mmse \
    --snr-list 60,120,140 --las both --trials 200 --seed 0
# ZF and MMSE with the search on, at a size where a draw sub-block holds 16
# trials: the Gram matrices and matched-filter outputs are shared by detection
# and the search workspace
cli ber-snr-32-linear ber-snr --nt 32 --nr 32 --detector all --las both \
    --snr-list 0,10 --trials 400 --min-errors 1000000 --seed 4
cli ber-antennas ber-antennas --n-list 1,2,4,8 --detector all --las both \
    --snr 10 --trials 500 --seed 1
for jobs in 1 2; do
    cli "rho-sweep-jobs$jobs" ber-rho --n-list 32 --snr-list 10 \
        --rho-list 0.8,0.85,0.9,0.95,1,1.05,1.1,1.15,1.2 --detector mf \
        --steps 90 --trials 100000 --min-errors 25 --seed 0 --jobs "$jobs"
done
for jobs in 1 2; do
    cli "ber-snr-groups-jobs$jobs" ber-snr --nt 8 --nr 8 --detector all \
        --las both --snr-list 0,5,10 --rho 0.9 --steps 24 --trials 3000 \
        --min-errors 60 --seed 2 --jobs "$jobs"
done
for jobs in 1 2; do
    cli "trace-3chunks-jobs$jobs" trace --nt 8 --nr 8 --snr-list 10 \
        --rho-list 0.9,1 --steps 24 --trials 1300 --jobs "$jobs"
done
# the same trace with no search steps: its likelihood rows are one column,
# kept across the three chunks and summed once
for jobs in 1 2; do
    cli "trace-steps0-jobs$jobs" trace --nt 8 --nr 8 --snr-list 10 \
        --rho-list 0.9,1 --steps 0 --trials 1300 --jobs "$jobs"
done
cli mmse-128 ber-snr --nt 128 --nr 128 --las on --rho 1 --min-errors 12800 \
    --snr-list=-10 --detector mmse --steps 128 --trials 20
cli trace-128 trace --nt 128 --nr 128 --rho-list 1 --snr-list=10 --detector mf \
    --steps 384 --trials 64

printf '%s\n' '{"nt": 6, "nr": 8, "snr_db": [0, 5], "detector": "mmse",' \
    ' "las_enabled": true, "rho": [0.9, 1.0], "n_f": 24, "max_trials": 400,' \
    ' "min_bit_errors": 50, "master_seed": 4}' >"$out/config-ber-snr.json"
cli config-ber-snr ber-snr --config "$out/config-ber-snr.json"
# ber-rho pairs nr with nt, so the config's nr is not read
printf '%s\n' '{"nt": [4, 8], "nr": [1, 1], "snr_db": [5], "rho": [0.9, 1.1],' \
    ' "n_f": 16, "max_trials": 300, "master_seed": 2}' >"$out/config-ber-rho.json"
cli config-ber-rho ber-rho --config "$out/config-ber-rho.json" --min-errors 40
printf '%s\n' '{"nt": 12, "nr": 16, "snr_db": [0, 10], "rho": [0.9],' \
    ' "detector": "zf", "n_f": 24, "max_trials": 30, "master_seed": 6}' \
    >"$out/config-trace.json"
cli config-trace trace --config "$out/config-trace.json" --rho-list 0.8,1
(
    # the environment's seed beats the config file's
    MIMO_SLAS_SEED=8
    export MIMO_SLAS_SEED
    cli env-seed ber-snr --config "$out/config-ber-snr.json" --nt 8 --nr 8 \
        --snr-list 5 --detector zf --las both --trials 300 --min-errors 30
)
# a preset pins its grid: the config's antennas, SNR, detector and search
# setting are all overridden, so this is fig1's 54 cells at 4x4
printf '%s\n' '{"nt": 4, "nr": 4, "snr_db": [7], "detector": "mf",' \
    ' "las_enabled": false}' >"$out/config-fig1.json"
cli preset-fig1-config ber-snr --config "$out/config-fig1.json" --preset fig1 \
    --nt 4 --nr 4 --trials 20
cli preset-fig2 ber-antennas --preset fig2 --n-list 2,4 --snr 5 --detector mf \
    --steps 8 --trials 300 --min-errors 40 --seed 1
cli preset-fig3 trace --preset fig3 --nt 8 --nr 8 --steps 16 --trials 20 --seed 1
cli preset-fig8 ber-rho --preset fig8 --n-list 8 --steps 16 --trials 200 \
    --min-errors 20 --seed 1
cli preset-fig9 flops --preset fig9 --n-list 2,8 --steps-list 4,16 --seed 2
run ber-snr --nt 4 --nr 4 --snr-list 0,10 --detector all --las on --rho 0.9 \
    --steps 8 --trials 200 --min-errors 20 --seed 5 --format json \
    --out "$out/ber-snr-json.json" >/dev/null
# every table is written by the same writer: pin the JSON of the other two
run trace --nt 6 --nr 8 --snr-list 0,10 --rho-list 0.9,1 --steps 8 --trials 40 \
    --seed 5 --format json --out "$out/trace-json.json" >/dev/null
run flops --n-list 2,4 --steps-list 4,8 --seed 1 --format json \
    --out "$out/flops-json.json" >/dev/null
run selfcheck --instances 9 >"$out/selfcheck.txt"
# the injected fault must fail: keep its report and its exit status (1)
status=0
run selfcheck --instances 27 --inject-fault grad-sign >"$out/selfcheck-fault.txt" || status=$?
echo "exit $status" >>"$out/selfcheck-fault.txt"
# the replay evaluates the likelihood directly on every step: at 1000
# instances a verdict that sits near a tolerance would show a change there
run selfcheck --instances 1000 >"$out/selfcheck-1000.txt"
status=0
run selfcheck --instances 1000 --seed 7 --inject-fault grad-sign \
    >"$out/selfcheck-1000-fault.txt" || status=$?
echo "exit $status" >>"$out/selfcheck-1000-fault.txt"
