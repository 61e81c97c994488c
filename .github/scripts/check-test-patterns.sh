#!/usr/bin/env bash
# Fails when a test-selection pattern in a CI workflow matches no test.
#
# The guard steps pick tests with `go test -run/-fuzz/-bench REGEX PKGS`.
# A renamed or deleted test silently drops out of such a guard, so this
# script expands every |-separated alternative of every pattern and
# requires each to match at least one test, fuzz target or benchmark
# that `go test -list` reports for the packages the command names.
#
#   bash .github/scripts/check-test-patterns.sh [.github/workflows/ci.yml]
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}

# Print each step's run command on one line: folded `run: >` blocks are
# joined the way YAML folds them, single-line `run:` values pass as is.
commands() {
	awk '
		/^ *run: >/ { if (cmd != "") print cmd; cmd = ""; folded = 1; match($0, /^ */); indent = RLENGTH; next }
		folded {
			match($0, /^ */)
			if (RLENGTH > indent && $0 !~ /^ *$/) { line = $0; sub(/^ */, "", line); cmd = cmd " " line; next }
			print cmd; cmd = ""; folded = 0
		}
		/^ *run: / { line = $0; sub(/^ *run: /, "", line); print line }
		END { if (cmd != "") print cmd }
	' "$1"
}

failed=0
while IFS= read -r segment; do
	read -ra words <<<"${segment//\'/}"
	[ "${words[0]:-}" = go ] && [ "${words[1]:-}" = test ] || continue
	patterns=() pkgs=() want=
	for word in "${words[@]:2}"; do
		if [ -n "$want" ]; then
			patterns+=("$word") want=
			continue
		fi
		case $word in
		-run | -fuzz | -bench) want=1 ;;
		-run=* | -fuzz=* | -bench=*) patterns+=("${word#*=}") ;;
		./*) pkgs+=("$word") ;;
		esac
	done
	[ ${#patterns[@]} -gt 0 ] || continue
	listed=$(go test -list '.*' "${pkgs[@]}" | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	for pattern in "${patterns[@]}"; do
		[ "$pattern" = NONE ] || [ "$pattern" = . ] && continue
		IFS='|' read -ra alternatives <<<"$pattern"
		for alt in "${alternatives[@]}"; do
			if ! grep -qE -- "$alt" <<<"$listed"; then
				echo "$workflow: pattern '$alt' matches no test in ${pkgs[*]}" >&2
				failed=1
			fi
		done
	done
done < <(commands "$workflow" | sed 's/&&/\n/g')
exit "$failed"
