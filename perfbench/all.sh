#!/usr/bin/env bash
# Runs every workload once and prints each result line, prefixed with the
# workload's name. Extra arguments go to every run:
#
#	bash perfbench/all.sh --seed 7 --seconds 30 --trace 0
#
# Exits non-zero if any run fails or reports incorrect output, which
# includes a repetition whose output digest disagrees with the others.
set -uo pipefail
status=0
for w in campaign-busy campaign-idle fleet scrubd; do
	if ! line=$(bash perfbench/run.sh --workload "$w" "$@" | tail -n 1); then
		echo "$w: run failed" >&2
		status=1
		continue
	fi
	echo "$w $line"
	case "$line" in
	*'"correct":true'*) ;;
	*) status=1 ;;
	esac
done
exit $status
