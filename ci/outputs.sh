#!/usr/bin/env bash
# Write the outputs of a fixed set of deformzeros commands into OUTDIR.
#
#   ci/outputs.sh OUTDIR [SRC]
#
# SRC (default src) is the source tree the commands run from, put on
# PYTHONPATH.  Deterministic outputs must be byte-identical from run to run,
# so two runs into two directories must leave `diff -r` with nothing to say:
#
#   ci/outputs.sh det-a && ci/outputs.sh det-b && diff -r det-a det-b
#
# and a change that should keep every output diffs against its parent the
# same way, with SRC in a checkout of the parent commit:
#
#   git worktree add ../parent HEAD~1
#   ci/outputs.sh det-parent ../parent/src && ci/outputs.sh det-change
#   diff -r det-parent det-change
#
# The script stops, with a nonzero exit, at the first command that exits
# with a code other than the one it expects.  It writes bad.cfg in the
# current directory.
set -eo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 OUTDIR [SRC]" >&2
  exit 2
fi
out=$1
export PYTHONPATH=${2:-src}

# a config file that is not UTF-8 (exit 2, one usage-error line)
printf '\xff\xfe' > bad.cfg
mkdir -p "$out"
# exit 1 is the measured claim failures, not an error; q = 8 runs
# the division on an even composite modulus, q = 7 on an odd family
python -m deformzeros.cli report --q 5 --out "$out/report_q5.json" > "$out/report_q5.stdout" || [ $? -eq 1 ]
python -m deformzeros.cli report --q 8 --out "$out/report_q8.json" > "$out/report_q8.stdout" || [ $? -eq 1 ]
python -m deformzeros.cli report --q 7 --parity odd --out "$out/report_q7_odd.json" > "$out/report_q7_odd.stdout" || [ $? -eq 1 ]
python -m deformzeros.cli track --family q7 --parity odd --t 1:20 --out "$out/track" > "$out/track.stdout"
# box counts with a certified right edge; the q = 7 odd box holds
# an off-line pair, so its verify is a claim FAIL
python -m deformzeros.cli zeros count --family q8 --tau 0 --box -1:2:1:30 > "$out/count_q8.stdout"
python -m deformzeros.cli zeros verify --family q7 --parity odd --tau 0.3 --box -1:2:1:40 > "$out/verify_q7_odd.stdout" || [ $? -eq 1 ]
# the catalog and zero-record outputs
python -m deformzeros.cli chars --parity even --qmax 30 > "$out/chars_even.stdout"
python -m deformzeros.cli chars --parity odd --qmax 30 --json > "$out/chars_odd.json"
python -m deformzeros.cli verify-fe --family q5 --tau 0.5 > "$out/verify_fe_q5.stdout"
python -m deformzeros.cli zeros scan --f f0 --q 5 --t 1:13 > "$out/scan_f0_q5.stdout"
# --f boxes on the half path, and a modulus whose first catalog
# entry is imprimitive (the report takes label 7, conductor 24)
python -m deformzeros.cli zeros count --f zeta --box -1:2:1:30 > "$out/count_zeta.stdout"
python -m deformzeros.cli zeros verify --f L --q 5 --box -1:2:1:30 > "$out/verify_L5.stdout"
python -m deformzeros.cli report --q 24 --out "$out/report_q24.json" > "$out/report_q24.stdout" || [ $? -eq 1 ]
# --f f0 follows --parity: the odd q = 7 family's tau = 0 member
python -m deformzeros.cli zeros scan --f f0 --q 7 --parity odd --t 1:20 > "$out/scan_f0_q7_odd.stdout"
python -m deformzeros.cli verify-fe --f f0 --q 7 --parity odd > "$out/verify_fe_f0_q7_odd.stdout"
# the first degenerate family (f0 = f1 = L(chi 3.1), one plan) and
# the whole catalog, whose imprimitive entries lift their root number
python -m deformzeros.cli report --q 3 --parity odd --out "$out/report_q3_odd.json" > "$out/report_q3_odd.stdout" || [ $? -eq 1 ]
python -m deformzeros.cli chars --parity even --qmax 200 > "$out/chars_even_200.stdout"
python -m deformzeros.cli chars --parity odd --qmax 200 --json > "$out/chars_odd_200.json"
# line counts that stop at the winding, and one that never
# reaches it (winding 2, line 0: the whole grid, a claim FAIL)
python -m deformzeros.cli zeros verify --family q8 --tau 0.37 --box -1:2:1:30 > "$out/verify_q8.stdout"
python -m deformzeros.cli zeros verify --family q7 --parity odd --tau 0.3431 --box -1:2:31.5:31.7 > "$out/verify_q7_odd_tau_c.stdout" || [ $? -eq 1 ]
# a report whose R has an interior extremum (t ~ 31.59), and
# a track that loses one q = 5 branch at t = 0
python -m deformzeros.cli report --q 7 --parity odd --tmax 40 --out "$out/report_q7_odd_40.json" > "$out/report_q7_odd_40.stdout" || [ $? -eq 1 ]
python -m deformzeros.cli track --family q5 --t 0:30 --out "$out/track_q5" > "$out/track_q5.stdout"
# an odd family with ten shared residue classes, and the endpoints
# of one family evaluated alone (each is its named function)
python -m deformzeros.cli report --q 11 --parity odd --out "$out/report_q11_odd.json" > "$out/report_q11_odd.stdout" || [ $? -eq 1 ]
python -m deformzeros.cli verify-fe --family q8 --tau 0 > "$out/verify_fe_q8_tau0.stdout"
python -m deformzeros.cli verify-fe --family q8 --tau 1 > "$out/verify_fe_q8_tau1.stdout"
# an endpoint's FAIL bisection, which revisits its points, and an
# endpoint's line scan
python -m deformzeros.cli zeros verify --family q7 --parity odd --tau 0 --box -1:2:1:40 > "$out/verify_q7_odd_tau0.stdout" || [ $? -eq 1 ]
python -m deformzeros.cli zeros scan --family q5 --tau 1 --t 1:20 > "$out/scan_q5_tau1.stdout"
# first_complex_character's early stop and a catalog lookup at
# the largest modulus the CLI takes
python -m deformzeros.cli zeros scan --f f0 --q 199 --parity odd --t 1:5 > "$out/scan_f0_q199_odd.stdout"
# a count with a certified right edge prints its margin; one with
# no certified edge prints the line empty
python -m deformzeros.cli zeros count --family q7 --parity odd --tau 0 --box -1:2:1:30 > "$out/count_q7_odd_margin.stdout"
python -m deformzeros.cli zeros count --f zeta --box 0:1:1:30 > "$out/count_zeta_uncertified.stdout"
# an interval below t = 0, cut symmetrically; L of an even
# character from its chi = 1 classes and zeta(s), alone and with
# two primes in P(s) = prod_{p | q} (1 - p^-s)
python -m deformzeros.cli track --family q5 --t -30:30 --out "$out/track_q5_sym" > "$out/track_q5_sym.stdout"
python -m deformzeros.cli zeros scan --f L --q 8 --t 1:30 > "$out/scan_L_q8.stdout"
python -m deformzeros.cli verify-fe --f L --q 21 > "$out/verify_fe_L_q21.stdout"
# W-factor poles on the sweep grid, skipped and listed at s = 3 and 5
python -m deformzeros.cli verify-fe --family q5 --tau 0.5 --sigma 3:5 --t 0:1 > "$out/verify_fe_w_poles.stdout"
# a W pole at the mirror (s = 3) of a grid point: s = -2 takes W
# from w_factor where it stands, not from the mirror
python -m deformzeros.cli verify-fe --family q5 --tau 0.5 --sigma -2:3 --t 0:1 > "$out/verify_fe_mirror_w_pole.stdout"
# a box not symmetric about 1/2 takes two right halves, the mirror
# identity's (sym(1.5) + sym(2)) / 2 (the file keeps the name of the
# whole-boundary walk it took before); a sweep whose every sigma is
# below 1/2 takes W from w_factor's left-half formula
python -m deformzeros.cli zeros count --f zeta --box -0.5:2:1:30 > "$out/count_zeta_whole_boundary.stdout"
python -m deformzeros.cli verify-fe --family q5 --tau 0.5 --sigma -2:0.25 > "$out/verify_fe_left_half.stdout"
# a box that reaches below the real axis keeps the whole-boundary
# walk, and a box just below the q = 7 odd close pair, which the
# whole boundary counted 1 and the mirror identity counts 0
python -m deformzeros.cli zeros count --f L --q 7 --parity odd --box -0.5:1.5:-10:10 > "$out/count_L7_odd_whole_boundary.stdout"
python -m deformzeros.cli zeros count --family q7 --parity odd --tau 0.343 --box -1.013:2.5:31:31.583 > "$out/count_q7_odd_close_pair.stdout"
# branches lost where R turns back (reversals), and the on_line PASS
# that ROADMAP item 2 shows is false: three zero pairs of f0 lie right
# of sigma = 2, outside the report's box
python -m deformzeros.cli report --q 51 --parity odd --out "$out/report_q51_odd.json" > "$out/report_q51_odd.stdout" || [ $? -eq 1 ]
# a residual above --tol: the sweep's FAIL, exit 1 and nothing else
code=0
python -m deformzeros.cli verify-fe --family q5 --tau 0.5 --tol 1e-20 > "$out/verify_fe_q5_fail.stdout" || code=$?
[ "$code" -eq 1 ]
# a valid config, with a value that starts with a minus sign, runs
# as the flags it holds
printf 'family = q8\ntau = 0.37\nbox = -1:2:1:30\n' > "$out/good.cfg"
python -m deformzeros.cli zeros verify --config "$out/good.cfg" | cmp - "$out/verify_q8.stdout"
# help built with every command, and with the one it names
python -m deformzeros.cli --help > "$out/help.stdout"
python -m deformzeros.cli zeros --help > "$out/help_zeros.stdout"
code=0
python -m deformzeros.cli verify-fe --family q8 --config bad.cfg > "$out/bad_config.stdout" 2> "$out/bad_config.stderr" || code=$?
[ "$code" -eq 2 ]
