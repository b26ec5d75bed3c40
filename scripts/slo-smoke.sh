#!/bin/sh
# slo-smoke.sh — end-to-end check of the streaming SLO engine: run a long
# weak-link DiversiFi call with the paper's rule set (examples/slo/paper.yaml)
# armed via -slo, poll the live /alerts endpoint until the miss-rate rule has
# fired, assert the slo_* families are exposed on /metrics while alerts are
# live, and after the run reconstruct the full pending→firing→resolved
# lifecycle from the slo-trace-v1 events with `tracetool episodes`, which
# finds the slo family among the call's packet events. CI runs this on every
# push, next to http-smoke.sh.
#
# The scenario is a fixed-seed 7200 s weak-link call run diversifi-only
# (-strategy diversifi keeps the process on a single simulation, so the
# series collector that drives the engine sees every window). The draw is
# deterministic, so the lifecycle this script asserts is reproducible.
#
# POSIX sh; depends only on the Go toolchain and curl.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
run_pid=""
cleanup() {
    [ -n "$run_pid" ] && kill "$run_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/experiments" ./cmd/experiments
go build -o "$tmp/tracetool" ./cmd/tracetool
go build -o "$tmp/promcheck" ./cmd/promcheck

cat >"$tmp/weak-link.yaml" <<'SPEC'
schema: scenario-v1
name: slo-smoke
seed: 404
duration_s: 7200
profile: g711
spine:
  draw:
    impairment: weak-link
    severity: 1.5
    stream: simtest/corpus
SPEC

: >"$tmp/stderr"
"$tmp/experiments" -slo examples/slo/paper.yaml -trace "$tmp/trace.jsonl" \
    -http 127.0.0.1:0 scenario run -strategy diversifi "$tmp/weak-link.yaml" \
    >"$tmp/stdout" 2>"$tmp/stderr" &
run_pid=$!

# Wait for the announce line and extract the bound address.
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's#^obsflag: live endpoints on http://\([^ ]*\).*#\1#p' "$tmp/stderr")
    [ -n "$addr" ] && break
    if ! kill -0 "$run_pid" 2>/dev/null; then
        echo "slo-smoke: run exited before announcing its endpoint" >&2
        cat "$tmp/stderr" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "slo-smoke: no announce line within 10s" >&2
    cat "$tmp/stderr" >&2
    exit 1
fi
echo "slo-smoke: polling http://$addr/alerts"

# Poll /alerts until the miss-rate rule reports a nonzero fired count. The
# counter is cumulative and monotone, so this converges as soon as the first
# firing transition happens — no race against the alert resolving again.
fired=""
i=0
while [ $i -lt 400 ]; do
    if curl -fsS --max-time 2 "http://$addr/alerts" >"$tmp/alerts.json" 2>/dev/null; then
        if awk '/"name": "miss-rate"/ { in_rule = 1; next }
                in_rule && /"name":/ { exit }
                in_rule && /"fired":/ && $NF + 0 > 0 { ok = 1 }
                END { exit !ok }' "$tmp/alerts.json"; then
            fired=yes
            break
        fi
    fi
    if ! kill -0 "$run_pid" 2>/dev/null; then
        break
    fi
    sleep 0.05
    i=$((i + 1))
done
if [ -z "$fired" ]; then
    echo "slo-smoke: miss-rate rule never fired on /alerts" >&2
    cat "$tmp/alerts.json" 2>/dev/null >&2 || true
    exit 1
fi
grep -q '"schema": "slo-alerts-v1"' "$tmp/alerts.json" || {
    echo "slo-smoke: /alerts missing schema marker" >&2
    cat "$tmp/alerts.json" >&2
    exit 1
}
echo "slo-smoke: miss-rate fired live on /alerts"

# With an alert known to have fired, the slo_* families must be on /metrics
# and the exposition must still validate.
"$tmp/promcheck" -retry 5 -interval 100ms "http://$addr/metrics"
curl -fsS --max-time 5 "http://$addr/metrics" >"$tmp/metrics.txt" || {
    echo "slo-smoke: GET /metrics failed" >&2
    exit 1
}
for name in slo_alert_state slo_rule_value slo_rule_fired_total; do
    grep -q "^$name" "$tmp/metrics.txt" || {
        echo "slo-smoke: /metrics missing $name" >&2
        cat "$tmp/metrics.txt" >&2
        exit 1
    }
done
grep '^slo_rule_fired_total{rule="miss-rate"}' "$tmp/metrics.txt" |
    grep -qv ' 0$' || {
    echo "slo-smoke: slo_rule_fired_total{rule=\"miss-rate\"} still zero" >&2
    exit 1
}
echo "slo-smoke: slo_* families exposed on /metrics"

if ! wait "$run_pid"; then
    echo "slo-smoke: run exited nonzero" >&2
    cat "$tmp/stderr" >&2
    exit 1
fi
run_pid=""

# Reconstruct the lifecycle offline: the trace must lint clean and contain
# at least one complete pending→firing→resolved episode of the miss-rate
# rule (a resolved transition after a firing one).
"$tmp/tracetool" episodes "$tmp/trace.jsonl" >"$tmp/slo.txt"
grep -q '^slo lint: clean' "$tmp/slo.txt" || {
    echo "slo-smoke: trace linted dirty" >&2
    cat "$tmp/slo.txt" >&2
    exit 1
}
awk '$1 == "miss-rate" && $4 != "-" && $5 != "-" && $6 == "resolved" { ok = 1 }
     END { exit !ok }' "$tmp/slo.txt" || {
    echo "slo-smoke: no complete miss-rate pending->firing->resolved episode in trace" >&2
    cat "$tmp/slo.txt" >&2
    exit 1
}
echo "slo-smoke: full alert lifecycle reconstructed from trace"
echo "slo-smoke: ok"
