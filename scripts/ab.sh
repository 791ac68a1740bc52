#!/usr/bin/env bash
# Same-machine A/B run of the end-to-end benchmark declared in
# BENCHMARK.json. Run from anywhere inside the repository:
#
#   bash scripts/ab.sh [-n pairs] [-s seconds] <base-rev> [<cand-rev>]
#
# The base revision, and the candidate revision when one is given, are
# checked out as detached git worktrees under a temporary directory; the
# candidate defaults to the current working tree, uncommitted edits
# included. For every pair and every workload the script runs each side's
# own `bash perfbench/run.sh --workload W --seconds S --trace 0`, base
# and candidate back to back, and the side that runs first alternates
# from pair to pair. -n defaults to 10 pairs and -s to the file's
# run_seconds.
#
# It prints one table row per workload and end-to-end metric: parent
# (base) and change (candidate) as median [Q1, Q3] over the pairs, the
# change in the median, and in how many pairs the change was better. A
# row whose parent quartiles lie further apart than the metric's bound
# is marked unresolved unless every change run beats every parent run.
# It exits 1 when a change median is worse than the parent median by more
# than the metric's bound, when the change fails a larger share of its
# operations than the parent, or when a change run reports
# "correct": false. The worktrees are removed on every exit path.
set -euo pipefail

usage() {
	echo "usage: bash scripts/ab.sh [-n pairs] [-s seconds] <base-rev> [<cand-rev>]" >&2
	exit 2
}

pairs=10
secs=
while getopts 'n:s:' opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	s) secs=$OPTARG ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ $# -eq 1 ] || [ $# -eq 2 ] || usage
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

root=$(git rev-parse --show-toplevel)
spec="$root/BENCHMARK.json"
secs=${secs:-$(jq -r .run_seconds "$spec")}
[[ $secs =~ ^[0-9]+(\.[0-9]+)?$ ]] || usage
base_rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
cand_rev=
[ $# -eq 2 ] && cand_rev=$(git -C "$root" rev-parse --verify "$2^{commit}")
mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
worktrees=()
child=
cleanup() {
	local rc=$?
	trap - EXIT INT TERM
	if [ -n "$child" ]; then
		kill -TERM -- "-$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
	fi
	for wt in "${worktrees[@]}"; do
		git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || true
	done
	git -C "$root" worktree prune
	chmod -R u+w "$tmp" 2>/dev/null || true
	rm -rf "$tmp"
	exit "$rc"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

checkout() { # rev dir
	git -C "$root" worktree add --quiet --detach "$2" "$1"
	worktrees+=("$2")
}
checkout "$base_rev" "$tmp/base"
dir_base=$tmp/base
dir_change=$root
if [ -n "$cand_rev" ]; then
	checkout "$cand_rev" "$tmp/change"
	dir_change=$tmp/change
fi
label_base=$(git -C "$root" rev-parse --short "$base_rev")
label_change=${cand_rev:+$(git -C "$root" rev-parse --short "$cand_rev")}
label_change=${label_change:-working tree}
echo "ab: parent $label_base vs change $label_change; $pairs pairs, $secs s per run, ${#workloads[@]} workloads" >&2

# run side workload pair: one benchmark run, its JSON line kept in
# $tmp/res. The run gets its own process group so an interrupt stops it
# and the operations it spawned.
mkdir -p "$tmp/res"
run() {
	local dir out rc=0
	dir=dir_$1
	out="$tmp/res/$2.$1.$3"
	set -m
	(cd "${!dir}" && exec bash perfbench/run.sh --workload "$2" --seconds "$secs" --trace 0) >"$out.log" 2>&1 &
	child=$!
	set +m
	wait "$child" || rc=$?
	child=
	tail -n 1 "$out.log" >"$out.json"
	if [ "$rc" -ne 0 ] || ! jq -e '.metrics' "$out.json" >/dev/null 2>&1; then
		tail -n 20 "$out.log" >&2
		echo "ab: $1 run of $2 (pair $3) failed with exit $rc" >&2
		exit 1
	fi
	echo "ab: pair $3/$pairs $2 $1: $(jq -r '"correct=\(.correct) failed=\(.failed)/\(.attempted) wall_s=\(.metrics.wall_s.value * 1000 | round / 1000)"' "$out.json")" >&2
}

for ((i = 1; i <= pairs; i++)); do
	for w in "${workloads[@]}"; do
		if ((i % 2)); then
			run base "$w" "$i"
			run change "$w" "$i"
		else
			run change "$w" "$i"
			run base "$w" "$i"
		fi
	done
done

# One object per workload: {name, base: [runs], change: [runs]}, runs in
# pair order.
for w in "${workloads[@]}"; do
	for side in base change; do
		for ((i = 1; i <= pairs; i++)); do cat "$tmp/res/$w.$side.$i.json"; done |
			jq -s --arg side "$side" '{($side): .}'
	done | jq -s --arg w "$w" 'add + {name: $w}'
done | jq -s -r --slurpfile spec "$spec" '
	# Four significant digits, trailing zeros kept: 3.650, 0.003400, 1211.
	def sig4:
		if . == 0 then "0" else
			([3 - (fabs | log10 | floor), 0] | max) as $d
			| (if . < 0 then "-" else "" end) as $sign
			| (fabs * pow(10; $d) | round | tostring) as $s
			| if $d == 0 then $sign + $s else
				((("0" * ($d + 1 - ($s | length))) // "") + $s) as $p
				| ($p | length) as $l
				| $sign + $p[0:$l - $d] + "." + $p[$l - $d:]
			end
		end;
	# Quantile with linear interpolation between order statistics.
	def quantile($q):
		sort as $v | ((($v | length) - 1) * $q) as $h | ($h | floor) as $lo
		| if $lo + 1 < ($v | length) then $v[$lo] + ($h - $lo) * ($v[$lo + 1] - $v[$lo]) else $v[$lo] end;
	def cell: "\(quantile(0.5) | sig4) [\(quantile(0.25) | sig4), \(quantile(0.75) | sig4)]";
	$spec[0].end_to_end as $metrics
	| [.[] as $w | ($w.base | length) as $n
		| ($metrics[] as $m
			| [$w.base[].metrics[$m.name].value] as $b
			| [$w.change[].metrics[$m.name].value] as $c
			| if ($b | any(. == null)) or ($c | any(. == null)) then
				{row: "| \($w.name) (\($n)) | \($m.name) | n/a | n/a | | | missing |", bad: ["\($w.name) \($m.name): missing from a run"]}
			else
				($b | quantile(0.5)) as $bm | ($c | quantile(0.5)) as $cm
				| (if $m.better == "higher" then -1 else 1 end) as $sign
				| ([range($n)] | map(select($sign * ($c[.] - $b[.]) < 0)) | length) as $wins
				| ($sign * ($cm - $bm) > $m.bound * ($bm | fabs)) as $worse
				# A parent spread wider than the bound leaves the row
				# unresolved unless every change run beats every parent run.
				| (if $bm == 0 then 0 else (($b | quantile(0.75)) - ($b | quantile(0.25))) / ($bm | fabs) * 100 | round end) as $spread
				| ($spread > $m.bound * 100 and ([$c[] * $sign] | max) >= ([$b[] * $sign] | min)) as $unresolved
				| (if $bm == 0 then "n/a" else (($cm - $bm) / ($bm | fabs) * 1000 | round / 10) as $p | if $p == 0 then "0%" else (if $p > 0 then "+" else "" end) + ($p | tostring) + "%" end end) as $delta
				| {row: "| \($w.name) (\($n)) | \($m.name) | \($b | cell) | \($c | cell) | \($delta) | \($wins)/\($n) | \(if $worse then "WORSE than bound \($m.bound * 100 | round)%" elif $unresolved then "unresolved: parent IQR \($spread)% > bound" else "ok" end) |",
				   bad: (if $worse then ["\($w.name) \($m.name): change median \($cm | sig4) vs parent \($bm | sig4) (\($delta)), bound \($m.bound * 100 | round)%"] else [] end)}
			end),
		(($w.base | map(.failed) | add) as $bf | ($w.base | map(.attempted) | add) as $ba
			| ($w.change | map(.failed) | add) as $cf | ($w.change | map(.attempted) | add) as $ca
			| ($cf * $ba > $bf * $ca) as $morefailed
			| {row: "| \($w.name) (\($n)) | failed ops | \($bf)/\($ba) | \($cf)/\($ca) | | | \(if $morefailed then "WORSE" else "ok" end) |",
			   bad: ((if $morefailed then ["\($w.name): change failed \($cf) of \($ca) operations, parent \($bf) of \($ba)"] else [] end)
				+ (if ($w.change | any(.correct != true)) then ["\($w.name): a change run reported correct: false"] else [] end))})
	] as $rows
	| ["| workload (pairs) | metric | parent | change | Δ | wins | gate |", "|---|---|---|---|---|---|---|"]
	+ [$rows[].row]
	+ ([$rows[].bad[]] | if length == 0 then ["", "ab: PASS"] else ["", "ab: FAIL"] + map("ab: FAIL " + .) end)
	| .[]' | tee "$tmp/table.md"
! grep -q '^ab: FAIL' "$tmp/table.md"
