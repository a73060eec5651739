#!/bin/sh
# bench2json.sh [bench.txt] — convert `go test -bench` output (stdin or a
# file) into a machine-readable JSON summary on stdout:
#
#   {
#     "KernelInterpreter": {
#       "engine=walk": 1234567.8,
#       "engine=vm-vec": 345678.9
#     },
#     ...
#   }
#
# Top-level keys are the benchmark names with the Benchmark prefix and the
# -GOMAXPROCS suffix stripped; nested keys are the sub-benchmark paths
# (engine=..., memo=.../workers-N, ...); values are mean ns/op across all
# samples (-count=N). `make bench` pipes its output through this script to
# produce results/bench.json; scripts/benchdiff.sh diffs two such files.
#
# The testing package appends "-GOMAXPROCS" only when GOMAXPROCS > 1, and
# sub-benchmark names can legitimately end in "-N" (workers-8), so the
# suffix is stripped only when every benchmark line of the same input
# file carries the same one (scripts/e2e-load.sh folds the loadgen
# numbers, which have none, into the micro-benchmarks' file).
set -eu

awk '
{
    n = split($0, parts, /[ \t]+/)
    if (parts[1] !~ /^Benchmark/ || n < 3) next
    name = parts[1]
    sub(/^Benchmark/, "", name)
    for (i = 3; i < n; i++) {
        if (parts[i+1] == "ns/op") {
            nb++
            names[nb] = name
            files[nb] = FILENAME
            vals[nb] = parts[i] + 0
            f = FILENAME
            if (match(name, /-[0-9]+$/)) {
                sfx = substr(name, RSTART)
                if (!(f in common)) common[f] = sfx
                else if (common[f] != sfx) common[f] = ""
            } else common[f] = ""
            break
        }
    }
}
END {
    for (b = 1; b <= nb; b++) {
        name = names[b]
        if (common[files[b]] != "") sub(/-[0-9]+$/, "", name)  # strip -GOMAXPROCS
        slash = index(name, "/")
        group = slash ? substr(name, 1, slash - 1) : name
        key = slash ? substr(name, slash + 1) : ""
        sum[group SUBSEP key] += vals[b]
        cnt[group SUBSEP key]++
    }
    for (gk in sum) {
        split(gk, p, SUBSEP)
        printf "%s\t%s\t%.1f\n", p[1], p[2], sum[gk] / cnt[gk]
    }
}
' "$@" | sort | awk -F '\t' '
BEGIN { print "{"; group = "" }
{
    if ($1 != group) {
        if (group != "") printf "\n  },\n"
        group = $1
        printf "  \"%s\": {", group
        first = 1
    }
    if (!first) printf ","
    first = 0
    printf "\n    \"%s\": %s", $2, $3
}
END {
    if (group != "") printf "\n  }\n"
    print "}"
}
'
