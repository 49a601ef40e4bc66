#!/usr/bin/env bash
# Check that this checkout's src/ gives the same outputs as revision REV's.
#
# Usage: tools/same_outputs.sh REV [--full]
#
# Exports REV's src/ with `git archive`, then runs both trees, OpenBLAS on one
# thread: `homotopt solve` on the 20x8 and 40x12 bridges (and the default
# 60x20 with --full), `solve` on 20x8 with `stepping.dt_init = 0.1` and
# `stepping.dt_max = 0.25` (a folding run whose steps below the cap start from
# the tangent predictor, so its tangent solves go through the Hessian too, and
# whose correctors stop on leaving the minimizer branch), `solve` on
# acceptance criterion 6's 20x8 config
# (`stepping.dt_init = stepping.dt_max = 0.9`, `barrier.mu_inf = 0.05`,
# `newton.damping = 0.0`: full Newton steps with no `step_limit`, whose
# correctors end `invalid_iterate`), `solve` on 40x12 with
# `mesh.diagonal = right` (the one non-mirrored mesh the solver accepts),
# `scalar-demos` and `check-derivatives`.
# Every solve runs with --verbose, so its log gives each step, accepted or
# rejected, with its reason, Newton count and residual, which the output
# files do not show; the folding runs' rejected correctors are compared too.
# It diffs each solve's output directory and the text each command prints,
# less the `outputs in DIR` line, plus the exit status.  For each file that
# differs it also prints how many of its numbers differ and the largest
# absolute and relative difference among them, so a change in the last bits
# reads apart from a changed result.  Last it prints the line count of
# src/homotopt/*.py in REV's tree and in this checkout.  Exits 1 on any
# difference.
set -euo pipefail

usage="usage: tools/same_outputs.sh REV [--full]"
rev=${1:?$usage}
cases="20x8 40x12"
case ${2:-} in
    "") ;;
    --full) cases="$cases 60x20" ;;
    *) echo "$usage" >&2; exit 2 ;;
esac

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/rev"
git -C "$root" archive "$rev" src | tar -x -C "$work/rev"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

# run SIDE NAME ARGS...: `python -m homotopt ARGS` from SIDE's tree (rev or
# head); the printed text and the exit status go to $work/SIDE-NAME.txt
run() {
    local side=$1 name=$2 src=$root/src
    shift 2
    [ "$side" = rev ] && src=$work/rev/src
    (cd "$work" && PYTHONPATH=$src python -m homotopt "$@" 2>&1; echo "exit $?") \
        | grep -v "outputs in " > "$work/$side-$name.txt" || true
}

# numbers A B: for files A and B, or each pair of differing files in
# directories A and B, the count of numbers that differ between paired lines
# and the largest absolute and relative difference among them, and the count
# of lines left unpaired (added, removed, or with another count of numbers).
# Files of equal length pair line by line; others pair as a line diff does.
numbers() {
    python - "$1" "$2" <<'PY'
import difflib, filecmp, os, re, sys

a, b = sys.argv[1:]
if os.path.isdir(a):
    names = sorted(set(os.listdir(a)) & set(os.listdir(b)))
    pairs = [(os.path.join(a, f), os.path.join(b, f)) for f in names
             if not filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)]
else:
    pairs = [(a, b)]
number = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
for x, y in pairs:
    old, new = (open(f, errors="replace").read().splitlines() for f in (x, y))
    diffs, unpaired = [], 0
    if len(old) == len(new):
        blocks = [("replace", 0, len(old), 0, len(new))]
    else:
        blocks = difflib.SequenceMatcher(None, old, new, autojunk=False).get_opcodes()
    for tag, i1, i2, j1, j2 in blocks:
        if tag == "equal":
            continue
        if i2 - i1 != j2 - j1:
            unpaired += i2 - i1 + j2 - j1
            continue
        for p, q in zip(old[i1:i2], new[j1:j2]):
            u, v = ([float(t) for t in number.findall(line)] for line in (p, q))
            if len(u) != len(v):
                unpaired += 2
                continue
            diffs += [(abs(e - f), abs(e - f) / max(abs(e), abs(f))) for e, f in zip(u, v) if e != f]
    text = f"  {os.path.basename(y)}: {len(diffs)} numbers differ"
    if diffs:
        text += (f", largest difference {max(d for d, _ in diffs):.3e} absolute, "
                 f"{max(r for _, r in diffs):.3e} relative")
    print(text + (f"; {unpaired} lines unpaired" if unpaired else ""))
PY
}

status=0
compare() {
    if diff "$@" > "$work/diff.txt"; then
        echo "same: ${*: -1}"
    else
        echo "DIFFERENT: ${*: -1}"
        head -n 20 "$work/diff.txt"
        numbers "${@: -2:1}" "${@: -1}"
        status=1
    fi
}

for mesh in $cases; do
    printf 'mesh.nx = %s\nmesh.ny = %s\n' "${mesh%x*}" "${mesh#*x}" > "$work/$mesh.cfg"
done
printf 'stepping.dt_init = 0.1\nstepping.dt_max = 0.25\n' | cat "$work/20x8.cfg" - \
    > "$work/20x8-dt.cfg"
printf 'stepping.dt_init = 0.9\nstepping.dt_max = 0.9\nbarrier.mu_inf = 0.05\nnewton.damping = 0.0\n' \
    | cat "$work/20x8.cfg" - > "$work/20x8-criterion6.cfg"
printf 'mesh.nx = 40\nmesh.ny = 12\nmesh.diagonal = right\n' > "$work/40x12-right.cfg"
solves="$cases 20x8-dt 20x8-criterion6 40x12-right"
for side in rev head; do
    for name in $solves; do
        run $side "solve-$name" solve "$work/$name.cfg" --out-dir "$work/$side-out-$name" \
            --verbose
    done
    run $side scalar-demos scalar-demos
    run $side check-derivatives check-derivatives --points 3
done

cd "$work"
for name in $solves; do
    compare -r "rev-out-$name" "head-out-$name"
done
for name in $(ls head-*.txt | sed 's/^head-//'); do
    compare "rev-$name" "head-$name"
done
echo "src/homotopt lines: $(cat rev/src/homotopt/*.py | wc -l) at $rev," \
    "$(cat "$root"/src/homotopt/*.py | wc -l) in this checkout"
exit $status
