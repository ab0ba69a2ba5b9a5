#!/usr/bin/env bash
# Crash-recovery mced smoke: boot a journaled daemon whose checkpoints
# are slowed down, stream a large enumeration job, kill -9 the daemon
# mid-stream, restart it on the same journal directory, reconnect with
# the client's `?resume_after=` cursor, and assert that the kept prefix
# plus the resumed stream carry the exact clique count with zero
# duplicates — exactly-once delivery across a real crash.
#
# Usage: smoke_crash_recovery.sh
# The mced/mce/mcegen binaries are taken from $BIN (default ./bin).
set -euo pipefail

BIN=${BIN:-bin}
WORK=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

# A graph whose stream far outlives the kill window: 559,095 cliques.
"$BIN/mcegen" -model er -n 3000 -m 250000 -seed 3 -out "$WORK/g.txt" >/dev/null
"$BIN/mce" -in "$WORK/g.txt" -out "$WORK/ref.txt" 2>/dev/null
WANT=$(wc -l <"$WORK/ref.txt")
echo "smoke_crash_recovery: reference enumeration has $WANT maximal cliques"

wait_port() {
  for _ in $(seq 1 100); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  echo "smoke_crash_recovery: portfile $1 never appeared" >&2
  exit 1
}

wait_ready() {
  for _ in $(seq 1 150); do
    curl -sf "$1/readyz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "smoke_crash_recovery: $1/readyz never turned 200" >&2
  exit 1
}

# First life: journal every job, checkpoint after every branch chunk. An
# ordered enumerate job appends each chunk's checkpoint from its single
# releasing goroutine, so delaying every checkpoint append by 100ms paces
# the stream at one chunk per 100ms: the poll below is satisfied a few
# seconds in, well before the job can finish, and the SIGKILL lands
# mid-stream deterministically.
MCED_CHAOS='journal.ckpt=delay:100ms' \
  "$BIN/mced" -addr 127.0.0.1:0 -portfile "$WORK/p1" -dataset er="$WORK/g.txt" \
  -journal "$WORK/wal" -checkpoint-interval=-1ns 2>"$WORK/a.log" &
MCED=$!
wait_port "$WORK/p1"
A="http://$(cat "$WORK/p1")"
wait_ready "$A"

JOB=$(curl -sf "$A/v1/jobs" -d '{"dataset":"er","mode":"enumerate","workers":2}' | jq -r .id)

curl -sN "$A/v1/jobs/$JOB/cliques" >"$WORK/partial.ndjson" &
CURL=$!

for _ in $(seq 1 300); do
  if grep -q '"ckpt"' "$WORK/partial.ndjson" 2>/dev/null &&
    [ "$(grep -c '^{"c":' "$WORK/partial.ndjson" 2>/dev/null || true)" -ge 500 ]; then
    break
  fi
  sleep 0.1
done
grep -q '"ckpt"' "$WORK/partial.ndjson" || {
  echo "smoke_crash_recovery: no checkpoint marker before timeout" >&2
  tail -5 "$WORK/a.log" >&2
  exit 1
}
kill -9 "$MCED"
wait "$CURL" 2>/dev/null || true
tail -1 "$WORK/partial.ndjson" | jq -e '.done? // false' >/dev/null 2>&1 && {
  echo "smoke_crash_recovery: stream finished before the kill — not a crash test" >&2
  exit 1
}

# Client contract: keep only cliques before the last marker, resume after it.
LAST=$(grep -n '"ckpt"' "$WORK/partial.ndjson" | tail -1 | cut -d: -f1)
CURSOR=$(sed -n "${LAST}p" "$WORK/partial.ndjson" | jq -r .ckpt)
head -n "$((LAST - 1))" "$WORK/partial.ndjson" | grep '^{"c":' >"$WORK/kept.ndjson" || true
KEPT=$(wc -l <"$WORK/kept.ndjson")
echo "smoke_crash_recovery: killed daemon mid-stream — kept $KEPT cliques, cursor $CURSOR"

# Second life: same journal, no -dataset flag and no injected delay —
# replay restores the dataset registration and the interrupted job. The
# default checkpoint interval keeps the resumed run from fsyncing on every
# branch chunk.
"$BIN/mced" -addr 127.0.0.1:0 -portfile "$WORK/p2" \
  -journal "$WORK/wal" 2>"$WORK/b.log" &
wait_port "$WORK/p2"
B="http://$(cat "$WORK/p2")"
wait_ready "$B"

curl -sfN "$B/v1/jobs/$JOB/cliques?resume_after=$CURSOR" >"$WORK/rest.ndjson" || {
  echo "smoke_crash_recovery: resume stream failed" >&2
  tail -5 "$WORK/b.log" >&2
  exit 1
}
tail -1 "$WORK/rest.ndjson" | jq -e '.done and .state == "done"' >/dev/null
grep '^{"c":' "$WORK/rest.ndjson" >"$WORK/restc.ndjson" || true

TOTAL=$(cat "$WORK/kept.ndjson" "$WORK/restc.ndjson" | wc -l)
DUPES=$(cat "$WORK/kept.ndjson" "$WORK/restc.ndjson" | sort | uniq -d | wc -l)
if [ "$TOTAL" -ne "$WANT" ]; then
  echo "smoke_crash_recovery: kept+resumed carried $TOTAL cliques, want $WANT" >&2
  exit 1
fi
if [ "$DUPES" -ne 0 ]; then
  echo "smoke_crash_recovery: $DUPES duplicate cliques across the crash" >&2
  exit 1
fi

# The trailer's logical total folds the durable pre-crash prefix back in,
# and the journal/resume metrics must show the machinery actually ran.
tail -1 "$WORK/rest.ndjson" | jq -e --argjson want "$WANT" '.stats.cliques == $want' >/dev/null
curl -sf "$B/metrics?format=json" | jq -e --argjson c "$CURSOR" \
  '.mced_resume_jobs_restored >= 1 and
   .mced_journal_records_appended >= 1 and
   .mced_resume_branches_skipped >= $c' >/dev/null

echo "smoke_crash_recovery: OK — $TOTAL cliques exactly once across kill -9 (cursor $CURSOR)"
