#!/usr/bin/env bash
# End-to-end smoke for mlpsim-serve, exercising the cross-process pieces
# the in-crate tests cannot: separate server/client binaries, a real
# `kill -9` mid-queue, and a restart that must lose nothing.
#
#   1. HTTP-submitted fig5 result is byte-identical to `mlpsim fig5`,
#      and the live /metrics scrape carries the job-latency histograms.
#   2. Live event stream carries parseable run brackets.
#   3. Cancel works against a running job.
#   4. A zero-capacity queue rejects submissions with 429.
#   5. kill -9 with a 10-job queue, restart: every job is recovered and
#      completes; the pre-crash completed result is re-served unchanged.
#
# Run from the repository root: scripts/serve_smoke.sh

set -euo pipefail

BIN=target/release
WORK=$(mktemp -d)

cleanup() {
    if [ -f "$WORK/pids" ]; then
        while read -r pid; do
            kill "$pid" 2>/dev/null || true
        done <"$WORK/pids"
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

cargo build --release -q -p mlpsim-serve -p mlpsim-experiments

# Start a server, wait for its "listening on" line, echo the URL. Runs in
# a command substitution (subshell), so the pid is handed back through
# files rather than variables.
start_server() { # args: logfile, extra flags...
    local log=$1
    shift
    "$BIN/mlpsim-serve" --addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
    echo $! >>"$WORK/pids"
    echo $! >"$WORK/last.pid"
    local url=""
    for _ in $(seq 1 100); do
        url=$(grep -oE 'http://[0-9.]+:[0-9]+' "$log" | head -1 || true)
        [ -n "$url" ] && break
        sleep 0.1
    done
    [ -n "$url" ] || { echo "server did not come up; log:"; cat "$log"; exit 1; }
    echo "$url"
}

client() { "$BIN/mlpsim-client" --server "$@"; }

# --- 1+2: byte-identical result, live event stream -----------------------
echo "== submit over HTTP, compare against the CLI run path"
"$BIN/mlpsim" fig5 --accesses 1500 -j 2 >"$WORK/cli.txt"

URL=$(start_server "$WORK/serve.log" --data-dir "$WORK/data")
ID=$(client "$URL" submit '{"kind":"fig5","accesses":1500,"jobs":2}')
timeout 120 "$BIN/mlpsim-client" --server "$URL" watch "$ID" >"$WORK/events.ndjson"
grep -q '"type":"run_start"' "$WORK/events.ndjson"
grep -q '"type":"run_end"' "$WORK/events.ndjson"
client "$URL" result "$ID" >"$WORK/http.txt"
cmp "$WORK/cli.txt" "$WORK/http.txt"
echo "   byte-identical ($(wc -c <"$WORK/cli.txt") bytes)"

# The completed job must show up in the Prometheus scrape: at least one
# wall-time histogram bucket, plus a consistent _count.
echo "== live /metrics scrape carries the job-latency histogram"
client "$URL" metrics >"$WORK/metrics.txt"
grep -q 'mlpsim_job_wall_time_ms_bucket{le="+Inf"} 1' "$WORK/metrics.txt"
grep -q 'mlpsim_job_wall_time_ms_count 1' "$WORK/metrics.txt"
grep -q 'mlpsim_job_queue_wait_ms_count 1' "$WORK/metrics.txt"
echo "   histogram families present"

# --- 2b: request tracing end-to-end ---------------------------------------
echo "== injected traceparent propagates through spans, recorder, access log"
TP="00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
OUT=$(client "$URL" submit --traceparent "$TP" '{"kind":"fig5","accesses":600,"jobs":1}')
TID=$(echo "$OUT" | awk '{print $1}')
TRACE=$(echo "$OUT" | awk '{print $2}')
[ "$TRACE" = "4bf92f3577b34da6a3ce929d0e0e4736" ] || {
    echo "submit did not inherit the injected trace id: $OUT"; exit 1; }
timeout 60 "$BIN/mlpsim-client" --server "$URL" wait "$TID" | grep -q done
sleep 0.3 # the trace publishes just after the job flips terminal

# The flight recorder serves the span tree under the injected id, and the
# tree carries the full request path.
client "$URL" traces "$TRACE" >"$WORK/trace.json"
for span in request parse admission journal_append queue_wait run; do
    grep -q "\"$span\"" "$WORK/trace.json" || {
        echo "span $span missing from trace:"; cat "$WORK/trace.json"; exit 1; }
done
grep -q 'run(cell=' "$WORK/trace.json"

# The Chrome export of the same trace is a trace-event document.
client "$URL" traces "$TRACE" --chrome >"$WORK/trace_chrome.json"
grep -q 'traceEvents' "$WORK/trace_chrome.json"
grep -q '"ph"' "$WORK/trace_chrome.json"

# The structured access log on stderr carries the propagated trace id.
grep '"kind":"access"' "$WORK/serve.log" | grep -q "$TRACE"

# mlpsim telemetry-report digests the full recorder dump.
client "$URL" traces >"$WORK/traces.json"
"$BIN/mlpsim" telemetry-report --traces "$WORK/traces.json" >"$WORK/traces_report.txt"
grep -q "Traces" "$WORK/traces_report.txt"

# Per-phase request histograms appear on the scrape.
client "$URL" metrics >"$WORK/metrics2.txt"
grep -q 'mlpsim_request_phase_queue_wait_ms_count' "$WORK/metrics2.txt"
grep -q 'mlpsim_request_phase_run_ms_count' "$WORK/metrics2.txt"
echo "   trace id end-to-end: span tree, chrome export, access log, histograms"

# --- 3: cancel a running job ---------------------------------------------
echo "== cancel a running job"
SLOW=$(client "$URL" submit '{"kind":"sweep","accesses":60000}')
sleep 0.3 # let the scheduler pick it up
client "$URL" cancel "$SLOW" >/dev/null
timeout 60 "$BIN/mlpsim-client" --server "$URL" wait "$SLOW" | grep -q cancelled
echo "   cancelled"
client "$URL" drain >/dev/null

# --- 4: backpressure ------------------------------------------------------
echo "== zero-capacity queue backpressures with 429"
URL=$(start_server "$WORK/full.log" --data-dir "$WORK/full" --queue 0 --retry-after 9)
if OUT=$(client "$URL" submit '{"kind":"fig5","accesses":100}' 2>&1); then
    echo "expected rejection, got: $OUT"
    exit 1
fi
echo "$OUT" | grep -q 429
client "$URL" drain >/dev/null
echo "   rejected with 429"

# --- 5: kill -9 a loaded server, restart, lose nothing -------------------
echo "== kill -9 with a 10-job queue, restart, resume"
URL=$(start_server "$WORK/crash.log" --data-dir "$WORK/crash" --queue 32)
CRASH_PID=$(cat "$WORK/last.pid")

FIRST=$(client "$URL" submit '{"kind":"fig5","accesses":400}')
timeout 60 "$BIN/mlpsim-client" --server "$URL" wait "$FIRST" | grep -q done
client "$URL" result "$FIRST" >"$WORK/first_before.txt"

RUNNING=$(client "$URL" submit '{"kind":"sweep","accesses":30000}')
QUEUED=()
for _ in $(seq 1 10); do
    QUEUED+=("$(client "$URL" submit \
        '{"kind":"sweep","benches":["mcf"],"policies":["lru"],"accesses":500}')")
done
sleep 0.3 # let the running job start and its start-op hit the journal
kill -9 "$CRASH_PID"
wait "$CRASH_PID" 2>/dev/null || true

URL=$(start_server "$WORK/restart.log" --data-dir "$WORK/crash")
JOBS=$(client "$URL" list | grep -o '"id":' | wc -l)
[ "$JOBS" -eq 12 ] || { echo "expected 12 recovered jobs, got $JOBS"; exit 1; }

# Completed result is re-served from disk, byte-identical.
client "$URL" result "$FIRST" >"$WORK/first_after.txt"
cmp "$WORK/first_before.txt" "$WORK/first_after.txt"

# The killed-while-running job and every queued job complete.
timeout 300 "$BIN/mlpsim-client" --server "$URL" wait "$RUNNING" | grep -q done
for id in "${QUEUED[@]}"; do
    timeout 120 "$BIN/mlpsim-client" --server "$URL" wait "$id" | grep -q done
done
client "$URL" drain >/dev/null
echo "   12/12 jobs recovered; completed result re-served byte-identical"

echo "serve smoke: OK"
