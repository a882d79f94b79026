#!/bin/sh
# Byte-identity check of a change against its parent checkout.
#
#   tools/diff_outputs.sh <parent checkout>
#
# Runs the same modegap commands with the parent's src/ and with this
# checkout's src/, each in its own empty directory, then compares every
# file written (config.resolved included), stdout, stderr and exit code
# with `diff -r`.  One command reads a config file that the script writes,
# and one spells values unusually (`4e1`, `01`), so a record that keeps the
# typed text instead of the parsed values shows in the diff.  The moons
# sweeps train in shares of different sizes: five seeds at five levels in
# two and three on two cores, ten seeds in five and five, one seed alone,
# and a one-level stack whose epoch-end judging reads its one table.
# The degrade tables of N = 8192 and 16384 rows are one and two 8,192-row
# chunks: the first is written by the command alone, the second in one
# share per core on two cores.  Three commands read their tables off the
# lattice, where a read clamps each point onto it and then overwrites the
# points that were off it: degrade at grid.L = 5 plots [-10, 10], and the
# minibatch moons sweep at grid.L = 3 and the full-batch XOR sweep at
# grid.L = 3, grid.N = 512 train on pre-activations past +-3.  Two commands
# write the CSV formatter's rare layouts: spectrum at grid.L = 740 writes
# 349 subnormal gap samples, and a thermal channel at T = 0.01 composed 18
# times writes exponents e+2dd and e-3dd.
# Two uniform degrades draw their family plot off the run's gap spectrum:
# at channel.iota = 0.3 on N = 262144 none of the five levels is the run's,
# and sweep.levels = 0.5 is a one-level family that is the run's own curve.
# Two XOR sweeps write the report's seed column at its widest: seeds 0 and
# 2**63 - 1 (1 and 19 digits in one column) and the one seed 2**64 - 1.
# A command marked `+` runs into a directory that already holds a default
# degrade run, so its files are moved over existing ones.  34 commands in all.
# Prints "no difference" and exits 0 when nothing differs, prints the diff
# and exits 1 when something does, and exits 2 on a bad argument.  Needs
# python3 with numpy; writes only to a temporary directory that it removes.
set -u

if [ $# -ne 1 ] || [ ! -d "$1/src/modegap" ]; then
    echo "usage: $0 <parent checkout>" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM
printf 'channel.profile = lowpass\ngrid.N = 1024\n' >"$work/run.cfg"

fine="--set grid.N=262144"
commands="spectrum
spectrum $fine
spectrum --set task.name=moons
spectrum --set grid.L=740 --set grid.N=8192
channel --set channel.profile=thermal --compose 4
channel --set channel.profile=thermal --compose 4 $fine
channel --set channel.profile=thermal --set channel.T=0.01 --compose 18
degrade
degrade --set channel.profile=lowpass
degrade --set channel.profile=thermal
degrade --set grid.N=8192
degrade --set grid.N=16384
degrade $fine
degrade --set channel.profile=lowpass $fine
degrade --set channel.profile=thermal $fine
degrade --config ../../run.cfg
degrade --set grid.L=5
degrade --set channel.iota=0.3 $fine
degrade --set sweep.levels=0.5
+degrade --set channel.iota=0.25
train-sweep
train-sweep --set task.name=moons --set sweep.levels=0,1
train-sweep --set sweep.seeds=0,1,2
train-sweep --set task.name=moons --set sweep.seeds=0,1,2,3,4
train-sweep --set task.name=moons --set sweep.levels=0,1 --set sweep.seeds=3
train-sweep --set task.name=moons --set sweep.levels=1 --set sweep.seeds=0,1
train-sweep --set channel.profile=thermal --set channel.T=0.01 --set sweep.seeds=0,1
train-sweep --set grid.L=4e1 --set sweep.levels=0,1 --set sweep.seeds=0,01
train-sweep --set task.name=moons --set sweep.levels=0,1 --set sweep.seeds=0,1 --set grid.L=3
train-sweep --set grid.L=3 --set grid.N=512
train-sweep --set sweep.levels=0,1 --set sweep.seeds=0,9223372036854775807
train-sweep --set sweep.levels=0,1 --set sweep.seeds=18446744073709551615
verify
verify --full"

for side in parent change; do
    if [ "$side" = parent ]; then src="$parent/src"; else src="$change/src"; fi
    n=0
    echo "$commands" | while read -r command; do
        n=$((n + 1))
        dir="$work/$side/$n"
        mkdir -p "$dir"
        echo "$command" >"$dir/command"
        out="--out out"
        case $command in
            verify*) out="" ;;
            +*) command=${command#+}
                (cd "$dir" && PYTHONPATH="$src" python3 -m modegap degrade --out out \
                    >/dev/null 2>&1) ;;
        esac
        # shellcheck disable=SC2086  # the command is a list of words
        (cd "$dir" && PYTHONPATH="$src" python3 -m modegap $command $out \
            >stdout 2>stderr; echo $? >code)
        echo "$side: $command exited $(cat "$dir/code")" >&2
    done
done

if diff -r "$work/parent" "$work/change"; then
    echo "no difference"
else
    exit 1
fi
