#!/bin/sh
# Write the reference outputs of this checkout's package to OUTDIR, one CSV per
# command.  Byte identity between two checkouts (or two --jobs values) is then
#
#     tools/reference_outputs.sh /tmp/a && other/tools/reference_outputs.sh /tmp/b
#     diff -r /tmp/a /tmp/b
#
# The rho-sweep command is the benchmark's selectivity sweep at seed 0; it is
# written at --jobs 1 and --jobs 2, and the two files must be identical.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
out=$1
mkdir -p "$out"

cli() {
    name=$1
    shift
    PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" \
        python3 -m mimo_slas.cli "$@" --out "$out/$name.csv" >/dev/null
}

cli ber-snr-8x8 ber-snr --nt 8 --nr 8 --detector all --las both \
    --snr-list=-5:5:20 --trials 3000 --min-errors 200 --seed 3
cli ber-rho-16 ber-rho --n-list 16 --snr-list 10 --rho-list 0.8,0.9,1.0 \
    --steps 48 --trials 2000 --min-errors 100 --seed 1 --jobs 2
cli trace-32-mmse trace --nt 32 --nr 32 --snr-list 10 --rho-list 0.9,1.0 \
    --steps 96 --trials 200 --detector mmse
cli flops flops --n-list 1,2,4,8,16,32,64,128 --steps-list 4,128 --seed 0
cli ber-snr-zf-singular ber-snr --nt 4 --nr 2 --detector zf --snr-list 0,10 \
    --las both --trials 200 --seed 0
cli ber-antennas ber-antennas --n-list 1,2,4,8 --detector all --las both \
    --snr 10 --trials 500 --seed 1
for jobs in 1 2; do
    cli "rho-sweep-jobs$jobs" ber-rho --n-list 32 --snr-list 10 \
        --rho-list 0.8,0.85,0.9,0.95,1,1.05,1.1,1.15,1.2 --detector mf \
        --steps 90 --trials 100000 --min-errors 25 --seed 0 --jobs "$jobs"
done
