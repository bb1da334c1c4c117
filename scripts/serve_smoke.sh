#!/usr/bin/env bash
# Smoke-test the streaming detection daemon end to end: start serve with
# both transports, an alert journal, and the status server on ephemeral
# ports; drive 3 tenants x 10k events through serveload with a canonical
# rare sequence injected at a known position; assert the live /runz serving
# counters, the ingest-latency p99 on /metrics, and one journaled alarm per
# tenant at the injected position; then SIGTERM the daemon and require a
# clean drain (accepted == scored, exit 0). A second leg serves the
# Section-7 veto pipeline (markov primary, stide veto) and requires one
# escalated journal record per tenant at the injected position, every
# raised candidate resolved once the tenants close, and a clean drain. CI
# runs this so the serving path cannot silently rot between releases.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
alerts_file="$workdir/alerts.ndjson"
pid=""
cleanup() {
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "building serve and serveload..."
go build -o "$workdir/serve" ./cmd/serve
go build -o "$workdir/serveload" ./cmd/serveload

# addr_of KEY: the address run.start announced under KEY.
addr_of() {
    sed -n 's/.*"'"$1"'":"\([^"]*\)".*/\1/p' "$stderr_log" | head -n1
}

# start_serve LABEL ARGS...: start the daemon with ARGS, logging to
# $workdir/LABEL.*, and wait for run.start to announce its TCP address.
start_serve() {
    local label=$1
    shift
    stderr_log="$workdir/$label.stderr.ndjson"
    stdout_log="$workdir/$label.stdout.txt"
    "$workdir/serve" "$@" >"$stdout_log" 2>"$stderr_log" &
    pid=$!
    tcp_addr=""
    for _ in $(seq 1 100); do
        tcp_addr=$(addr_of tcpAddr)
        [[ -n "$tcp_addr" ]] && return 0
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "FAIL: serve ($label) exited before announcing addresses" >&2
            cat "$stderr_log" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "FAIL: serve ($label) never announced a TCP address" >&2
    cat "$stderr_log" >&2
    exit 1
}

# drain_serve: SIGTERM must flush every accepted batch and exit 0.
drain_serve() {
    kill -TERM "$pid"
    if ! wait "$pid"; then
        echo "FAIL: serve exited nonzero after SIGTERM" >&2
        cat "$stdout_log" "$stderr_log" >&2
        exit 1
    fi
    pid=""
    if ! grep -q '^clean drain: ' "$stdout_log"; then
        echo "FAIL: no clean-drain line in serve output:" >&2
        cat "$stdout_log" >&2
        exit 1
    fi
    grep '^clean drain: ' "$stdout_log"
    if ! grep -q '"event":"serve.drained"' "$stderr_log"; then
        echo "FAIL: serve.drained never announced" >&2
        exit 1
    fi
}

# A modest training stream keeps daemon startup fast; stide window 6 at
# threshold 1 alarms only on windows containing foreign content, so the
# injected minimal-foreign sequences are the expected alarms.
start_serve stide -train-len 20000 -detector stide -window 6 -threshold 1 \
    -shards 4 -http 127.0.0.1:0 -tcp 127.0.0.1:0 -status 127.0.0.1:0 \
    -alerts "$alerts_file"
http_addr=$(addr_of httpAddr)
status_addr=$(addr_of statusAddr)
if [[ -z "$http_addr" || -z "$status_addr" ]]; then
    echo "FAIL: missing addresses in run.start (http='$http_addr' tcp='$tcp_addr' status='$status_addr')" >&2
    cat "$stderr_log" >&2
    exit 1
fi
echo "serve up: http $http_addr, tcp $tcp_addr, status $status_addr"

# One NDJSON request through the HTTP transport proves both transports share
# the core.
http_resp=$(curl -sS -X POST --data-binary '{"tenant":"curl-probe","symbols":[1,2,3,4,5,6],"close":true}' "http://$http_addr/v1/push")
if ! grep -q '"accepted":6' <<<"$http_resp"; then
    echo "FAIL: HTTP push did not accept 6 events: $http_resp" >&2
    exit 1
fi
echo "HTTP transport OK: $http_resp"

# Drive the load paced (~2s) so the mid-run /runz poll can observe all 3
# tenants live, in the background.
"$workdir/serveload" -tcp "$tcp_addr" -tenants 3 -events 10000 -batch 256 \
    -rate 15000 -inject-size 6 -window 6 -verify-journal "$alerts_file" \
    >"$workdir/load.txt" 2>"$workdir/load.stderr" &
load_pid=$!

saw_tenants=""
for _ in $(seq 1 50); do
    if curl -sS "http://$status_addr/runz" 2>/dev/null | grep -q '"tenants": *3'; then
        saw_tenants=yes
        break
    fi
    kill -0 "$load_pid" 2>/dev/null || break
    sleep 0.1
done
if [[ -z "$saw_tenants" ]]; then
    echo "FAIL: /runz never reported 3 live tenants mid-load" >&2
    curl -sS "http://$status_addr/runz" >&2 || true
    exit 1
fi
echo "polled /runz mid-load: 3 tenants live"

if ! wait "$load_pid"; then
    echo "FAIL: serveload failed (load output follows)" >&2
    cat "$workdir/load.txt" "$workdir/load.stderr" >&2
    exit 1
fi
cat "$workdir/load.txt"
if ! grep -q 'verify: all 3 tenants alarmed' "$workdir/load.txt"; then
    echo "FAIL: journal verification did not cover all tenants" >&2
    exit 1
fi

# The final 500ms stats tick publishes the full load: 3x10000 events plus
# 3x6 injected symbols plus the 6-event curl probe.
sleep 1
runz=$(curl -sS "http://$status_addr/runz")
accepted=$(sed -n 's/.*"accepted": *\([0-9]*\).*/\1/p' <<<"$runz" | head -n1)
if [[ -z "$accepted" || "$accepted" -lt 30018 ]]; then
    echo "FAIL: /runz accepted=$accepted, want >= 30018" >&2
    echo "$runz" >&2
    exit 1
fi
echo "/runz accepted=$accepted"

# The ingest-latency sketch must expose a finite p99 summary on /metrics.
metrics=$(curl -sS "http://$status_addr/metrics")
if ! grep -q 'adiv_serve_ingest_latency{quantile="0.99"}' <<<"$metrics"; then
    echo "FAIL: no serve/ingest_latency p99 on /metrics" >&2
    grep adiv_serve <<<"$metrics" >&2 || true
    exit 1
fi
echo "p99 on /metrics: $(grep 'adiv_serve_ingest_latency{quantile="0.99"}' <<<"$metrics")"

drain_serve
# Journal sanity: only adiv.alerts/v1 lines, tenant-stamped.
if grep -v '"schema":"adiv.alerts/v1"' "$alerts_file" | grep -q .; then
    echo "FAIL: journal contains non-v1 lines" >&2
    exit 1
fi
if ! grep -q '"tenant":"load-0"' "$alerts_file"; then
    echo "FAIL: journal records are not tenant-stamped" >&2
    exit 1
fi
echo "stide leg OK"

# Veto leg: the markov primary alarms on rare windows too, and only the
# ones the stide veto corroborates escalate. Each tenant's injected
# sequence must escalate, and closing the tenants resolves every candidate.
veto_alerts="$workdir/veto-alerts.ndjson"
start_serve veto -train-len 20000 -detector markov -window 6 -threshold 0.98 \
    -veto stide -shards 4 -tcp 127.0.0.1:0 -alerts "$veto_alerts"
echo "veto pipeline up: tcp $tcp_addr"
inject_pos=5000
if ! "$workdir/serveload" -tcp "$tcp_addr" -tenants 3 -events 10000 -batch 256 \
    -inject-size 6 -inject-pos "$inject_pos" -window 6 \
    >"$workdir/veto-load.txt" 2>"$workdir/veto-load.stderr"; then
    echo "FAIL: serveload against the veto pipeline failed" >&2
    cat "$workdir/veto-load.txt" "$workdir/veto-load.stderr" >&2
    exit 1
fi
drain_serve
# The same detection span serveload -verify-journal uses: the injection
# plus one window of slack on each side.
lo=$((inject_pos - 6))
hi=$((inject_pos + 6 + 6))
for i in 0 1 2; do
    tenant_recs=$(grep '"tenant":"load-'"$i"'"' "$veto_alerts" || true)
    count() { grep -c '"disposition":"'"$1"'"' <<<"$tenant_recs" || true; }
    found=0
    for p in $(grep '"disposition":"escalated"' <<<"$tenant_recs" | sed -n 's/.*"position":\([0-9]*\).*/\1/p'); do
        if ((p >= lo && p <= hi)); then
            found=$((found + 1))
        fi
    done
    if ((found == 0)); then
        echo "FAIL: tenant load-$i: no escalated record in [$lo,$hi]" >&2
        exit 1
    fi
    raised=$(count raised)
    escalated=$(count escalated)
    suppressed=$(count suppressed)
    if ((raised != escalated + suppressed)); then
        echo "FAIL: tenant load-$i: $raised raised != $escalated escalated + $suppressed suppressed after close" >&2
        exit 1
    fi
    echo "tenant load-$i: $found escalated in [$lo,$hi]; $raised raised = $escalated escalated + $suppressed suppressed"
done
echo "serve smoke OK"
