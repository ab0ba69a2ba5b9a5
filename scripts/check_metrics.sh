#!/usr/bin/env bash
# check_metrics.sh — validate a Prometheus text-exposition scrape of mced's
# GET /metrics. Reads the exposition from the file given as $1 (or stdin)
# and asserts:
#
#   * every sample line parses as `name{labels} value` with a numeric value;
#   * every metric family has exactly one `# TYPE` line, emitted before the
#     family's first sample;
#   * every histogram family carries a `+Inf` bucket, a `_sum` and a
#     `_count`, and its cumulative buckets are monotonically non-decreasing
#     in `le` order, ending equal to `_count`;
#   * the core serving histograms are present: job duration, queue wait
#     and shard RTT.
#
# Run by the CI smoke job against a live daemon; run locally with
#   curl -s http://127.0.0.1:8399/metrics | ./scripts/check_metrics.sh
set -euo pipefail

input=${1:-/dev/stdin}

awk '
function fail(msg) { printf "check_metrics: line %d: %s\n", NR, msg; bad = 1 }
function base(name,  b) {
  # family name of a sample: strip a histogram suffix, but only when the
  # stripped name is a declared histogram — plain counters may themselves
  # end in _count (e.g. mced_jobs_type_count, jobs of type "count")
  b = name; sub(/_bucket$/, "", b)
  if (b != name && typed[b] == "histogram") return b
  b = name; sub(/_sum$/, "", b)
  if (b != name && typed[b] == "histogram") return b
  b = name; sub(/_count$/, "", b)
  if (b != name && typed[b] == "histogram") return b
  return name
}
/^#/ {
  if ($2 == "TYPE") {
    if ($3 in typed) fail("duplicate # TYPE for " $3)
    typed[$3] = $4
  }
  next
}
/^$/ { next }
{
  # sample line: name, optional {labels}, numeric value
  if (match($0, /^[a-zA-Z_:][a-zA-Z0-9_:]*/) == 0) { fail("unparseable sample: " $0); next }
  name = substr($0, 1, RLENGTH)
  rest = substr($0, RLENGTH + 1)
  labels = ""
  if (substr(rest, 1, 1) == "{") {
    close_idx = index(rest, "}")
    if (close_idx == 0) { fail("unclosed label set: " $0); next }
    labels = substr(rest, 2, close_idx - 2)
    rest = substr(rest, close_idx + 1)
  }
  gsub(/^[ \t]+|[ \t]+$/, "", rest)
  if (rest !~ /^[-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$/) { fail("non-numeric value " rest " for " name); next }
  fam = base(name)
  if (!(fam in typed)) fail("sample for " name " before its # TYPE line")
  seen[fam] = 1
  if (typed[fam] == "histogram") {
    # series key: the labels minus le, so labelled histogram variants
    # (e.g. phase="pivot") are each checked independently
    lbl = labels
    if (!sub(/,le="[^"]*"/, "", lbl)) sub(/le="[^"]*",?/, "", lbl)
    key = fam "{" lbl "}"
    if (name ~ /_bucket$/) {
      if (match(labels, /le="[^"]*"/) == 0) { fail("bucket without le label: " $0); next }
      le = substr(labels, RSTART + 4, RLENGTH - 5)
      if (le == "+Inf") { has_inf[key] = 1; inf_val[key] = rest + 0 }
      if (key in last_bucket && rest + 0 < last_bucket[key])
        fail("non-monotone cumulative buckets in " key " at le=" le)
      last_bucket[key] = rest + 0
    } else if (name ~ /_sum$/)   { has_sum[key] = 1 }
    else if (name ~ /_count$/) { has_count[key] = 1; count_val[key] = rest + 0 }
    else fail("histogram family " fam " has a bare sample " name)
  }
}
END {
  for (key in last_bucket) {
    if (!(key in has_inf))   { printf "check_metrics: histogram %s lacks a +Inf bucket\n", key; bad = 1 }
    if (!(key in has_sum))   { printf "check_metrics: histogram %s lacks _sum\n", key; bad = 1 }
    if (!(key in has_count)) { printf "check_metrics: histogram %s lacks _count\n", key; bad = 1 }
    if ((key in has_inf) && (key in has_count) && inf_val[key] != count_val[key])
      { printf "check_metrics: histogram %s: +Inf bucket %d != _count %d\n", key, inf_val[key], count_val[key]; bad = 1 }
  }
  n = split("mced_job_duration_seconds mced_queue_wait_seconds mced_shard_rtt_seconds", req, " ")
  for (i = 1; i <= n; i++) {
    if (!(req[i] in seen)) { printf "check_metrics: required histogram %s missing\n", req[i]; bad = 1 }
    else if (typed[req[i]] != "histogram") { printf "check_metrics: %s is %s, want histogram\n", req[i], typed[req[i]]; bad = 1 }
  }
  if (!length(seen)) { print "check_metrics: no samples at all"; bad = 1 }
  if (bad) exit 1
  printf "check_metrics: OK (%d families)\n", length(seen)
}
' "$input"
