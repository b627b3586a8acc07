#!/bin/sh
# exact.sh <parent-rev>: the exactness gate. It runs the same 24
# fuzzyjoin joins with the parent revision and with the working tree
# and gives three verdicts, printing every difference:
#
#   outputs          every output file compared with cmp
#   counter lines    every -stats line but the job-report lines, timings
#                    cut: counters, pair counts, stage and job headers
#   job-report lines the engine's per-job "map:", "reduce:", "shuffle:"
#                    and "side files" lines, timings cut: task counts
#                    and byte volumes, which move with the split size or
#                    the input accounting while every counter holds
#
# It exits 1 if any output or counter line differs, 2 if only job-report
# lines differ (printed again under their own heading), and 0 if all
# three are equal, so no difference passes silently.
#
#   inputs     testdata/pubs.tsv; a 5k datagen corpus (-n 5000 -seed 42);
#              that corpus (R) joined with 2,500 CiteseerX-shaped records
#              derived from it (S); and the mirrored join, the CiteseerX-
#              shaped records as R and the corpus as S, where R is the
#              longer side and its items probe S's index
#   combos     BTO-PK-BRJ, OPTO-BK-OPRJ, BTO-FVT-BRJ
#   execution  in process, and -workers 2 (forked RPC workers)
#
# The parent is built from a git worktree under .bench_build/exact/
# (scripts/sides.sh), which is removed again on exit; the inputs,
# outputs and -stats files stay in .bench_build/exact/ for inspection. A
# change that moves a counter or a report line on purpose shows the diff
# here and says so in CHANGES.md.
#
# Usage: make exact PARENT=<rev>, or sh scripts/exact.sh <rev>.
set -eu

parent=${1:?usage: exact.sh <parent-rev>}
. "$(dirname "$0")/sides.sh"
dir=.bench_build/exact
build_sides "$dir" "$parent"
"$dir/datagen" -n 5000 -seed 42 -out "$dir/dblp5k.tsv" 2>/dev/null
"$dir/datagen" -n 2500 -seed 42 -style citeseer -overlap 0.1 -overlapBase 5000 \
	-startRID 100000000 -out "$dir/cite2500.tsv" 2>/dev/null

# cut_timings replaces every Go duration (213µs, 9.521ms, 1m2.5s) by T.
# Counts, byte sizes (1.4KiB) and names (s1-bto-count) never end in a
# duration unit right after a digit, so they pass through.
cut_timings() {
	LC_ALL=C sed -E 's/[0-9]+(\.[0-9]+)?(h|m|s|ms|µs|us|ns)([0-9]+(\.[0-9]+)?(m|s|ms|µs|us|ns))*([^A-Za-z0-9]|$)/T\6/g' "$1"
}

# report matches the job-report lines; the "job" headers go with them
# so that their diff names its job.
report='^(job |  (map|reduce|shuffle|side files))'

joins=0
outdiffs=0
counterdiffs=0
reportdiffs=0
: >"$dir/report.diff"
for input in pubs dblp5k rs rsmirror; do
	case $input in
	pubs) args="-in testdata/pubs.tsv" ;;
	dblp5k) args="-in $dir/dblp5k.tsv" ;;
	rs) args="-in $dir/dblp5k.tsv -in2 $dir/cite2500.tsv" ;;
	rsmirror) args="-in $dir/cite2500.tsv -in2 $dir/dblp5k.tsv" ;;
	esac
	for combo in BTO-PK-BRJ OPTO-BK-OPRJ BTO-FVT-BRJ; do
		stages=$(echo "$combo" | sed 's/^\([^-]*\)-\([^-]*\)-\(.*\)$/-stage1 \1 -stage2 \2 -stage3 \3/')
		for exec in inproc workers2; do
			mode=""
			[ "$exec" = workers2 ] && mode="-workers 2"
			tag=$input.$combo.$exec
			joins=$((joins + 1))
			for side in parent change; do
				# shellcheck disable=SC2086 # word splitting is wanted
				if ! "$dir/$side-fuzzyjoin" $args $stages $mode -stats \
					-out "$dir/$tag.$side.out" 2>"$dir/$tag.$side.stats"; then
					echo "exact: $tag: the $side join failed:" >&2
					tail -5 "$dir/$tag.$side.stats" >&2
					: >"$dir/$tag.$side.out"
				fi
			done
			if ! cmp -s "$dir/$tag.parent.out" "$dir/$tag.change.out"; then
				echo "exact: $tag: output differs"
				diff "$dir/$tag.parent.out" "$dir/$tag.change.out" | head -10
				outdiffs=$((outdiffs + 1))
			fi
			for side in parent change; do
				cut_timings "$dir/$tag.$side.stats" >"$dir/$tag.$side.cut"
				grep -Ev "$report" "$dir/$tag.$side.cut" >"$dir/$tag.$side.counters" || true
				grep -E "$report" "$dir/$tag.$side.cut" >"$dir/$tag.$side.report" || true
			done
			if ! diff -u --label "parent $tag" --label "change $tag" \
				"$dir/$tag.parent.counters" "$dir/$tag.change.counters"; then
				counterdiffs=$((counterdiffs + 1))
			fi
			if ! diff -u --label "parent $tag" --label "change $tag" \
				"$dir/$tag.parent.report" "$dir/$tag.change.report" >>"$dir/report.diff"; then
				reportdiffs=$((reportdiffs + 1))
			fi
			printf 'exact: %-30s %6d pairs\n' "$tag" "$(wc -l <"$dir/$tag.change.out")"
		done
	done
done

if [ "$reportdiffs" -gt 0 ]; then
	echo "exact: job-report lines that differ (timings cut):"
	cat "$dir/report.diff"
fi
echo "exact: outputs: $((joins - outdiffs)) of $joins cmp-equal"
echo "exact: counter lines (timings cut): $((joins - counterdiffs)) of $joins equal"
echo "exact: job-report lines (timings cut): $((joins - reportdiffs)) of $joins equal"
if [ "$outdiffs" -gt 0 ] || [ "$counterdiffs" -gt 0 ]; then
	exit 1
fi
if [ "$reportdiffs" -gt 0 ]; then
	exit 2
fi
