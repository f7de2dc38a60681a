#!/usr/bin/env bash
# End-to-end smoke for the sweep service: build the real binaries, run a
# campaign against a live padcsweepd over HTTP, SIGKILL the server
# mid-campaign, restart it over the same data directory, and verify the
# resumed campaign's CSV artifact is byte-identical to an uninterrupted
# in-process `padcsim -sweep` run. This is the PR's acceptance criterion
# exercised with real processes and real signals (the in-process variant
# lives in internal/sweepd's resume tests).
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

say() { echo "smoke_sweepd: $*"; }

say "building padcsim and padcsweepd"
go build -o "$tmp/padcsim" ./cmd/padcsim
go build -o "$tmp/padcsweepd" ./cmd/padcsweepd

cat >"$tmp/spec.json" <<'EOF'
{
    "name": "smoke",
    "seed": 7,
    "cores": 2,
    "insts": 8000,
    "policies": ["demand-first", "aps", "padc"],
    "workloads": [["swim", "libquantum"]],
    "mixes": 3
}
EOF

say "golden artifact: in-process padcsim -sweep"
"$tmp/padcsim" -sweep "$tmp/spec.json" -jobs 2 -sweep-csv "$tmp/golden.csv" >/dev/null 2>&1

start_server() {
    rm -f "$tmp/addr"
    "$tmp/padcsweepd" serve -addr 127.0.0.1:0 -data "$tmp/data" -jobs 1 \
        -addr-file "$tmp/addr" >>"$tmp/server.log" 2>&1 &
    pid=$!
    disown "$pid" 2>/dev/null || true # silence the shell's SIGKILL notice
    for _ in $(seq 1 100); do
        [ -s "$tmp/addr" ] && break
        sleep 0.1
    done
    [ -s "$tmp/addr" ] || { say "server never bound"; cat "$tmp/server.log"; exit 1; }
    base="http://$(cat "$tmp/addr")"
    # The listener binds before journal replay; wait on readiness, not
    # liveness — /readyz only turns 200 once replay/resume has finished
    # and the real handler is installed.
    for _ in $(seq 1 100); do
        curl -sf "$base/readyz" >/dev/null && return 0
        sleep 0.1
    done
    say "server never became ready"; cat "$tmp/server.log"; exit 1
}

say "starting padcsweepd"
start_server

say "submitting campaign over HTTP ($base)"
id=$(curl -sf -X POST "$base/api/v1/campaigns" \
    -H 'Content-Type: application/json' \
    -d "{\"spec\": $(cat "$tmp/spec.json"), \"workers\": 1, \"telemetry\": true}" |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$id" ] || { say "submit returned no campaign id"; exit 1; }
say "campaign $id accepted"

# Wait until at least two rows are journaled, then SIGKILL: no signal
# handler runs, no terminal journal event is written — only the
# flushed-per-row journal survives.
for _ in $(seq 1 600); do
    done_count=$(curl -sf "$base/api/v1/campaigns/$id" |
        sed -n 's/.*"done": \([0-9]*\).*/\1/p')
    [ "${done_count:-0}" -ge 2 ] && break
    sleep 0.05
done
[ "${done_count:-0}" -ge 2 ] || { say "campaign made no progress"; cat "$tmp/server.log"; exit 1; }
say "SIGKILL after $done_count journaled rows"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

say "restarting over the same data directory"
start_server

state=""
for _ in $(seq 1 600); do
    state=$(curl -sf "$base/api/v1/campaigns/$id" |
        sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
    [ "$state" = "completed" ] && break
    [ "$state" = "failed" ] || [ "$state" = "cancelled" ] &&
        { say "resumed campaign ended $state"; cat "$tmp/server.log"; exit 1; }
    sleep 0.05
done
[ "$state" = "completed" ] || { say "campaign never completed"; cat "$tmp/server.log"; exit 1; }

# The per-campaign metrics must be on /metrics, alongside the per-route
# RED series the HTTP middleware records. Scrape once into a file: a
# `curl | grep -q` pipeline can flake under pipefail when grep exits at
# the first match and curl takes the SIGPIPE.
curl -sf "$base/metrics" >"$tmp/metrics.txt"
grep -q "padc_sweepd_jobs_done{campaign=\"$id\"}" "$tmp/metrics.txt" ||
    { say "per-campaign metrics missing from /metrics"; exit 1; }
grep -q 'padc_sweepd_http_requests_total{' "$tmp/metrics.txt" ||
    { say "per-route RED metrics missing from /metrics"; exit 1; }

# The flight records survived the SIGKILL in the journal: one NDJSON
# roll-up per job, each carrying a flight summary.
say "fetching per-job telemetry roll-ups"
rows=$(curl -sf "$base/api/v1/campaigns/$id/telemetry" | grep -c '"flight"')
total=$(curl -sf "$base/api/v1/campaigns/$id" | sed -n 's/.*"total": \([0-9]*\).*/\1/p')
[ "$rows" = "$total" ] ||
    { say "telemetry has $rows flight records, want $total"; exit 1; }

say "fetching the resumed artifact"
curl -sf "$base/api/v1/campaigns/$id/artifact.csv" >"$tmp/resumed.csv"
if ! cmp -s "$tmp/golden.csv" "$tmp/resumed.csv"; then
    say "FAIL: resumed artifact differs from in-process sweep"
    diff "$tmp/golden.csv" "$tmp/resumed.csv" | head -20
    exit 1
fi
say "PASS: post-SIGKILL artifact is byte-identical to padcsim -sweep ($(wc -c <"$tmp/golden.csv") bytes)"
