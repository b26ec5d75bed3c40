#!/bin/sh
# http-smoke.sh — end-to-end check of the live control plane: launch a real
# campaign fleet with -http, scrape /healthz, /metrics, and /campaign/status
# while the fleet is running, and validate the exposition with the in-repo
# promcheck (no external promtool needed). A second phase runs a sweep
# coordinator and scrapes its merged /metrics mid-sweep, asserting the
# fleet job counters (sweep_fleet_*, docs/FLEET.md) are exposed,
# that the sweep_workers gauge counts the workers holding leases, and that
# the exposition still validates. CI runs this on every push.
#
# The campaign binds 127.0.0.1:0 and announces the picked port on stderr
# ("obsflag: live endpoints on http://ADDR ..."); the script parses that
# line, so it also exercises the announce contract scripts are told to rely
# on in docs/OBSERVABILITY.md.
#
# POSIX sh; depends only on the Go toolchain.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
campaign_pid=""
sweep_pid=""
cleanup() {
    for pid in "$campaign_pid" "$sweep_pid"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# Prebuild so the scrape window starts when the process does, not after an
# in-band compile.
go build -o "$tmp/campaign" ./cmd/campaign
go build -o "$tmp/promcheck" ./cmd/promcheck

# Two full-size figure fleets give a multi-second window; -no-cache keeps
# the window open on warm CI caches. Pre-create the stderr file so the
# announce poll below never races the background process into a sed
# failure under set -e.
: >"$tmp/stderr"
"$tmp/campaign" -jobs fig2a,fig2b -no-cache -quiet -workers 2 \
    -cache "$tmp/cache" -http 127.0.0.1:0 >"$tmp/stdout" 2>"$tmp/stderr" &
campaign_pid=$!

# Wait for the announce line and extract the bound address.
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's#^obsflag: live endpoints on http://\([^ ]*\).*#\1#p' "$tmp/stderr")
    [ -n "$addr" ] && break
    if ! kill -0 "$campaign_pid" 2>/dev/null; then
        echo "http-smoke: campaign exited before announcing its endpoint" >&2
        cat "$tmp/stderr" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "http-smoke: no announce line within 10s" >&2
    cat "$tmp/stderr" >&2
    exit 1
fi
echo "http-smoke: scraping http://$addr"

# Mid-run scrapes. promcheck retries cover the race between the announce
# and the listener accepting.
"$tmp/promcheck" -retry 20 -interval 100ms -expect-body ok "http://$addr/healthz"
"$tmp/promcheck" -retry 5 -interval 100ms "http://$addr/metrics"

# The fleet view must be served and carry its schema marker.
status=$(curl -fsS --max-time 5 "http://$addr/campaign/status" 2>/dev/null) || {
    echo "http-smoke: GET /campaign/status failed" >&2
    exit 1
}
case "$status" in
*campaign-status-v1*) ;;
*)
    echo "http-smoke: /campaign/status missing schema marker:" >&2
    echo "$status" >&2
    exit 1
    ;;
esac

# The fleet itself must finish cleanly with the scrapers attached.
if ! wait "$campaign_pid"; then
    echo "http-smoke: campaign exited nonzero" >&2
    cat "$tmp/stderr" >&2
    exit 1
fi
campaign_pid=""

# Phase 2: the sweep coordinator's merged fleet exposition. The coordinator
# adds each accepted lease report's job outcomes to the sweep_fleet_*
# counters and counts the workers' keepalives in sweep_heartbeats — those
# families are registered up front, so they must appear on /metrics
# mid-sweep, and the exposition must still validate.
cat >"$tmp/sweep-spec.json" <<'SPEC'
{
  "name": "http-smoke",
  "impairments": ["weak-link", "mobility"],
  "device_classes": ["pc", "mobile"],
  "ap_densities": ["typical", "sparse"],
  "seeds": { "start": 1, "count": 100 },
  "duration_s": 120
}
SPEC
: >"$tmp/sweep.err"
"$tmp/campaign" sweep -local 2 -batch 8 -ttl 1s -quiet \
    -cache "$tmp/sweep-cache" -http 127.0.0.1:0 \
    "$tmp/sweep-spec.json" >"$tmp/sweep.out" 2>"$tmp/sweep.err" &
sweep_pid=$!

addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's#^obsflag: live endpoints on http://\([^ ]*\).*#\1#p' "$tmp/sweep.err")
    [ -n "$addr" ] && break
    if ! kill -0 "$sweep_pid" 2>/dev/null; then
        echo "http-smoke: sweep exited before announcing its endpoint" >&2
        cat "$tmp/sweep.err" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "http-smoke: no sweep announce line within 10s" >&2
    cat "$tmp/sweep.err" >&2
    exit 1
fi
echo "http-smoke: scraping sweep coordinator on http://$addr"

"$tmp/promcheck" -retry 20 -interval 100ms "http://$addr/metrics"
# Scrape until the coordinator has granted a lease (at most 5 s).
granted=0
i=0
while [ $i -lt 50 ]; do
    curl -fsS --max-time 5 "http://$addr/metrics" >"$tmp/sweep-metrics.txt" || {
        echo "http-smoke: GET sweep /metrics failed" >&2
        exit 1
    }
    granted=$(awk '$1 == "sweep_leases_granted" { print $2 }' "$tmp/sweep-metrics.txt")
    [ "${granted:-0}" -ge 1 ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ "${granted:-0}" -lt 1 ]; then
    echo "http-smoke: no lease granted within 5s" >&2
    cat "$tmp/sweep-metrics.txt" >&2
    exit 1
fi
for name in sweep_leases_granted sweep_heartbeats sweep_fleet_jobs_executed \
    sweep_fleet_jobs_cached sweep_fleet_jobs_failed sweep_workers; do
    grep -q "^$name" "$tmp/sweep-metrics.txt" || {
        echo "http-smoke: mid-sweep /metrics missing $name" >&2
        cat "$tmp/sweep-metrics.txt" >&2
        exit 1
    }
done
# A registered gauge prints 0, so its name alone proves nothing: with a
# lease granted, the workers gauge must count its holder on a scrape that
# never asked for /campaign/status. (sweep_leases_active can read 0
# between two leases, so it is not checked.)
workers=$(awk '$1 == "sweep_workers" { print $2 }' "$tmp/sweep-metrics.txt")
if [ "${workers:-0}" -lt 1 ]; then
    echo "http-smoke: sweep_workers = ${workers:-missing} after $granted lease grants, want >= 1" >&2
    cat "$tmp/sweep-metrics.txt" >&2
    exit 1
fi
echo "http-smoke: fleet job counters and gauges exposed mid-sweep"

if ! wait "$sweep_pid"; then
    echo "http-smoke: sweep exited nonzero" >&2
    cat "$tmp/sweep.err" >&2
    exit 1
fi
sweep_pid=""
echo "http-smoke: ok"
