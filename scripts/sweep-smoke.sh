#!/bin/sh
# sweep-smoke.sh — end-to-end check of the fleet sweep engine: a coordinator
# serving a sweep over its HTTP control plane, two separate worker processes
# pulling job leases, one of them killed mid-sweep, and the merged summary
# required to be fingerprint-identical to a cache-cold single-process run.
# That equality is the engine's determinism contract (docs/FLEET.md): worker
# topology, lease re-assignment, and worker death must never change the
# result. The sharded summary must also re-render the full paper artifact
# offline (`campaign sweep report`), proving the v2 multi-metric sketches
# themselves — not just their fingerprint — survived the worker kill. The
# fleet observability plane rides along: the coordinator's fleet-trace-v1
# narration must lint clean (`tracetool episodes`), reconstruct the kill as
# exactly one expire→re-lease episode, and leave a postmortem flight dump
# for the dead worker (docs/OBSERVABILITY.md). CI runs this on every push,
# next to http-smoke.sh.
#
# The coordinator binds 127.0.0.1:0 and announces the picked port on stderr
# ("obsflag: live endpoints on http://ADDR ..."), the same contract
# http-smoke.sh exercises.
#
# POSIX sh; depends only on the Go toolchain.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
coord_pid=""
wa_pid=""
wb_pid=""
cleanup() {
    for pid in "$coord_pid" "$wa_pid" "$wb_pid"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/campaign" ./cmd/campaign
go build -o "$tmp/tracetool" ./cmd/tracetool

# A real-simulator grid: 2 impairments x 2 devices x 2 densities x 100
# seeds = 800 full-length calls — a few seconds of work, enough that
# killing a worker lands mid-sweep. -batch 8 keeps leases small so the dead
# worker's loss is visible; -ttl 2s re-leases it quickly.
cat >"$tmp/spec.json" <<'SPEC'
{
  "name": "smoke",
  "impairments": ["weak-link", "mobility"],
  "device_classes": ["pc", "mobile"],
  "ap_densities": ["typical", "sparse"],
  "seeds": { "start": 1, "count": 100 },
  "duration_s": 120
}
SPEC

# The lazy expansion must be instant and agree on the job count.
"$tmp/campaign" sweep expand "$tmp/spec.json" | tee "$tmp/expand.txt"
grep -q "= 800 jobs" "$tmp/expand.txt" || {
    echo "sweep-smoke: expand reported the wrong job count" >&2
    exit 1
}

# Coordinator: serve-only (-local 0), remote workers do all the work. The
# fleet observability plane is armed: -trace narrates the lease lifecycle
# as fleet-trace-v1 and -flight keeps the postmortem ring that must dump
# when the killed worker's lease expires. Pre-create the stderr file so
# the announce poll never races the background launch into a sed failure
# under set -e.
: >"$tmp/coord.err"
"$tmp/campaign" sweep -local 0 -http 127.0.0.1:0 -batch 8 -ttl 2s \
    -cache "$tmp/cache-sharded" -summary "$tmp/sharded.json" \
    -trace "$tmp/coord-trace.jsonl" -flight "$tmp/flight" \
    "$tmp/spec.json" >"$tmp/coord.out" 2>"$tmp/coord.err" &
coord_pid=$!

# Wait for the control-plane announce line and extract the bound address.
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's#^obsflag: live endpoints on http://\([^ ]*\).*#\1#p' "$tmp/coord.err")
    [ -n "$addr" ] && break
    if ! kill -0 "$coord_pid" 2>/dev/null; then
        echo "sweep-smoke: coordinator exited before announcing its endpoint" >&2
        cat "$tmp/coord.err" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "sweep-smoke: no announce line within 10s" >&2
    cat "$tmp/coord.err" >&2
    exit 1
fi
echo "sweep-smoke: coordinator on http://$addr"

# Two worker processes share the sweep. Worker A is the victim: single
# lease at a time, killed shortly after it starts pulling work.
"$tmp/campaign" worker -connect "$addr" -name victim -parallel 1 \
    -cache "$tmp/cache-sharded" >"$tmp/wa.out" 2>&1 &
wa_pid=$!
"$tmp/campaign" worker -connect "$addr" -name survivor -parallel 2 \
    -cache "$tmp/cache-sharded" >"$tmp/wb.out" 2>&1 &
wb_pid=$!

sleep 0.7
if kill -0 "$wa_pid" 2>/dev/null; then
    kill -9 "$wa_pid" 2>/dev/null || true
    echo "sweep-smoke: killed worker 'victim' mid-sweep"
fi
wa_pid=""

# The survivor finishes the sweep (re-leased spans included), then the
# coordinator prints the merged Table-1-style summary and exits.
if ! wait "$wb_pid"; then
    echo "sweep-smoke: surviving worker exited nonzero" >&2
    cat "$tmp/wb.out" >&2
    exit 1
fi
wb_pid=""
if ! wait "$coord_pid"; then
    echo "sweep-smoke: coordinator exited nonzero" >&2
    cat "$tmp/coord.err" >&2
    exit 1
fi
coord_pid=""

echo "sweep-smoke: merged summary from the sharded run:"
cat "$tmp/coord.out"
grep -q "Fleet sweep" "$tmp/coord.out" || {
    echo "sweep-smoke: no Table-1-style summary in coordinator output" >&2
    exit 1
}

# Reference run: single process, separate cold cache, same spec.
"$tmp/campaign" sweep -quiet -cache "$tmp/cache-single" \
    -summary "$tmp/single.json" "$tmp/spec.json" >/dev/null

# The determinism gate: identical fingerprints, sharded vs single-process.
fp_sharded=$(sed -n 's/.*"fingerprint": "\([0-9a-f]*\)".*/\1/p' "$tmp/sharded.json" | head -n 1)
fp_single=$(sed -n 's/.*"fingerprint": "\([0-9a-f]*\)".*/\1/p' "$tmp/single.json" | head -n 1)
if [ -z "$fp_sharded" ] || [ -z "$fp_single" ]; then
    echo "sweep-smoke: missing fingerprint in summary JSON" >&2
    exit 1
fi
if [ "$fp_sharded" != "$fp_single" ]; then
    echo "sweep-smoke: FINGERPRINT MISMATCH: sharded $fp_sharded vs single $fp_single" >&2
    exit 1
fi
echo "sweep-smoke: fingerprints match ($fp_sharded)"

# Both summaries must speak the v2 multi-metric schema.
for f in sharded.json single.json; do
    grep -q '"schema": "sweep-summary-v2"' "$tmp/$f" || {
        echo "sweep-smoke: $f is not a sweep-summary-v2 document" >&2
        exit 1
    }
done

# The paper artifact must re-render offline from the kill-survivor's
# summary: every table and both CDF figures, from merged sketches only.
"$tmp/campaign" sweep report "$tmp/sharded.json" >"$tmp/report.txt"
for want in "Paper artifact" "Table 1" "Table 2" "Table 3" \
    "MOS quantiles" "MOS CDF" "fingerprint $fp_sharded"; do
    grep -q "$want" "$tmp/report.txt" || {
        echo "sweep-smoke: sharded report missing '$want'" >&2
        cat "$tmp/report.txt" >&2
        exit 1
    }
done
echo "sweep-smoke: paper artifact re-rendered from the sharded summary"

# The fleet plane must have reconstructed the worker kill: the coordinator's
# fleet-trace-v1 narration lints clean, and the victim's death shows up as
# exactly one expire→re-lease episode (its single outstanding lease, reaped
# at TTL and re-granted whole to the survivor).
"$tmp/tracetool" episodes "$tmp/coord-trace.jsonl" >"$tmp/fleet.txt" || {
    echo "sweep-smoke: fleet trace failed the lint" >&2
    cat "$tmp/fleet.txt" >&2
    exit 1
}
grep -q "fleet lint: clean" "$tmp/fleet.txt" || {
    echo "sweep-smoke: fleet report is not clean" >&2
    cat "$tmp/fleet.txt" >&2
    exit 1
}
grep -q "expire->re-lease episodes: 1" "$tmp/fleet.txt" || {
    echo "sweep-smoke: expected exactly one expire->re-lease episode" >&2
    cat "$tmp/fleet.txt" >&2
    exit 1
}
echo "sweep-smoke: fleet trace lints clean with one expire->re-lease episode"

# A SIGKILL'd worker cannot write its own postmortem, so the coordinator
# must have dumped its flight ring when the victim's lease expired.
set -- "$tmp"/flight/flight-expire-victim-*.jsonl
if [ ! -s "$1" ]; then
    echo "sweep-smoke: no postmortem flight dump for the killed worker" >&2
    ls "$tmp/flight" >&2 2>/dev/null || true
    exit 1
fi
echo "sweep-smoke: postmortem flight dump present ($(basename "$1"))"
echo "sweep-smoke: ok"
