#!/bin/sh
# pairs.sh <parent-rev>: the paper-scale comparison. It runs N
# alternating pairs of `fuzzyjoin -stats` joins, the parent revision
# against the working tree, on one seeded corpus, checks with cmp that
# the two outputs of every pair are equal, and prints one markdown row
# per measure: the median [quartiles] of each side, Δ of the medians and
# the pairs the change read lower ("won", or "equal" if no pair
# differed). The measures are process wall, process peak RSS, each
# stage's wall, Stage 2's map and reduce cost (summed over tasks), every
# job's map-task count and every -stats counter.
#
# process_peak_rss_mb is the process's VmHWM from /proc/<pid>/status,
# polled about every 20 ms while it runs (shell only: there is no
# /usr/bin/time to ask). VmHWM never falls, so the last read is the
# peak, but a rise in the process's last interval goes unseen: the value
# can read low by up to one interval's growth.
#
#   SCALE=1e5|1e6  records. JOIN=self: datagen -seed 3 -factor 4 with
#                  -n SCALE/4, DBLP-like. JOIN=rs: SCALE/2 DBLP-like
#                  records (R, -seed 3) joined with SCALE/2 CiteseerX-
#                  like ones (S, -overlap 0.1 against R's corpus).
#   N              pairs (default 5); the side that runs first swaps
#                  every pair.
#   ARGS           more fuzzyjoin flags for both sides; without any, a
#                  join is the CLI's default, BTO-PK-BRJ, τ 0.8, 8
#                  reducers.
#
# The corpus is generated once a run, the parent built in a git worktree
# (scripts/sides.sh); everything lands in .bench_build/pairs/.
#
# Usage: make pairs PARENT=<rev> [N=5] [SCALE=1e5] [JOIN=self] [ARGS=...]
set -eu

parent=${1:?usage: pairs.sh <parent-rev>}
n=${N:-5} scale=${SCALE:-1e5} join=${JOIN:-self}
case $scale in
1e5) records=100000 ;;
1e6) records=1000000 ;;
*) echo "pairs: SCALE is 1e5 or 1e6, not $scale" >&2 && exit 2 ;;
esac
. "$(dirname "$0")/sides.sh"
dir=.bench_build/pairs
build_sides "$dir" "$parent"

echo "pairs: generating the $join corpus at $scale"
case $join in
self)
	"$dir/datagen" -n $((records / 4)) -seed 3 -factor 4 -out "$dir/r.tsv" 2>/dev/null
	inputs="-in $dir/r.tsv" ;;
rs)
	"$dir/datagen" -n $((records / 2)) -seed 3 -out "$dir/r.tsv" 2>/dev/null
	"$dir/datagen" -n $((records / 2)) -seed 3 -style citeseer -overlap 0.1 \
		-overlapBase $((records / 2)) -startRID 100000000 -out "$dir/s.tsv" 2>/dev/null
	inputs="-in $dir/r.tsv -in2 $dir/s.tsv" ;;
*) echo "pairs: JOIN is self or rs, not $join" >&2 && exit 2 ;;
esac

# peak_kb prints the last VmHWM (kB) read from /proc/$1/status, polled
# about every 20 ms until the process has exited (a zombie's status has
# no VmHWM line) or has been reaped.
peak_kb() {
	kb=0
	while v=$(awk '/^VmHWM:/ { print $2 }' "/proc/$1/status" 2>/dev/null) && [ -n "$v" ]; do
		kb=$v
		sleep 0.02
	done
	echo "$kb"
}

# measures turns one run's -stats output, its wall ($2) and its peak RSS
# ($3) into "name value" lines, times in seconds.
measures() {
	LC_ALL=C awk -v wall="$2" -v rss="$3" '
	function secs(d,   v, t, x) {
		while (match(d, /^[0-9.]+(h|ms|µs|us|ns|m|s)/)) {
			t = substr(d, 1, RLENGTH); d = substr(d, RLENGTH + 1); x = t + 0
			if (t ~ /ms$/) x /= 1e3; else if (t ~ /(µs|us)$/) x /= 1e6
			else if (t ~ /ns$/) x /= 1e9; else if (t ~ /h$/) x *= 3600
			else if (t ~ /m$/) x *= 60
			v += x
		}
		return v
	}
	BEGIN { print "process_wall_s", wall; print "process_peak_rss_mb", rss }
	/^stage [0-9]/ { print "stage" $2 "_wall_s", secs($NF) }
	/^job / { job = $2 }
	/^  (map|reduce):/ {
		sub(/:$/, "", $1)
		if ($1 == "map") print job ".map_tasks", $2
		if (job ~ /^s2-/) for (i = 1; i < NF; i++) if ($i == "total") print "stage2_" $1 "_cost_s", secs($(i + 1))
	}
	/^    [a-z0-9_.]+ +[0-9]+$/ { print $1, $2 }
	' "$1"
}

: >"$dir/measures"
i=1
while [ "$i" -le "$n" ]; do
	order="parent change"
	[ $((i % 2)) -eq 0 ] && order="change parent"
	for side in $order; do
		t0=$(date +%s%N)
		# shellcheck disable=SC2086 # word splitting is wanted
		"$dir/$side-fuzzyjoin" $inputs ${ARGS:-} -stats -out "$dir/$side.out" 2>"$dir/$side.$i.stats" &
		pid=$!
		peak_kb "$pid" >"$dir/peak_kb" &
		wait "$pid"
		t1=$(date +%s%N)
		wait # for peak_kb
		measures "$dir/$side.$i.stats" "$(awk -v a="$t0" -v b="$t1" 'BEGIN { print (b - a) / 1e9 }')" \
			"$(awk '{ print $1 / 1024 }' "$dir/peak_kb")" |
			sed "s/^/$side $i /" >>"$dir/measures"
	done
	cmp "$dir/parent.out" "$dir/change.out" || {
		echo "pairs: pair $i: outputs differ" >&2
		exit 1
	}
	echo "pairs: pair $i of $n: outputs equal ($(wc -l <"$dir/change.out") pairs)"
	i=$((i + 1))
done

# One row per measure, in the order the runs first print them.
LC_ALL=C awk -v n="$n" '
function sort(a, k,   i, j, t) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
function q(a, k, p,   h, l) { h = 1 + (k - 1) * p; l = int(h); return a[l] + (h - l) * (a[l + 1 > k ? k : l + 1] - a[l]) }
function fmt(x) { return x == int(x) ? sprintf("%d", x) : sprintf("%.4g", x) }
function cell(a, k) { sort(a, k); return fmt(q(a, k, 0.5)) " [" fmt(q(a, k, 0.25)) "–" fmt(q(a, k, 0.75)) "]" }
{
	if (!($3 in seen)) { seen[$3] = 1; names[++m] = $3 }
	v[$1, $3, $2] = $4
}
END {
	print "| measure | parent | change | Δ | won |"
	print "|---|---|---|---|---|"
	for (j = 1; j <= m; j++) {
		name = names[j]; won = 0; k = 0; same = 1
		for (i = 1; i <= n; i++) {
			k++; p[k] = v["parent", name, i] + 0; c[k] = v["change", name, i] + 0
			if (c[k] < p[k]) won++
			if (c[k] != p[k]) same = 0
		}
		pc = cell(p, k); cc = cell(c, k); mp = q(p, k, 0.5); mc = q(c, k, 0.5)
		d = mp == 0 ? (mc == 0 ? "0 %" : "new") : sprintf("%+.1f %%", 100 * (mc - mp) / mp)
		printf "| %s | %s | %s | %s | %s |\n", name, pc, cc, d, same ? "equal" : won "/" k
	}
}' "$dir/measures"
