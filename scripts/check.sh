#!/usr/bin/env sh
# check.sh runs the full verification ladder. Tier 1 is the build/test
# contract every PR must keep green; tier 2 adds vet, the race detector
# (campaigns execute on the concurrent engine pool), shuffled test
# ordering (catches inter-test state leaks in cached engines and fault
# plans), and sensorlint, the repo-specific static-analysis pass that
# enforces the determinism, seed-derivation, and context invariants
# (see internal/lint).
set -eu
cd "$(dirname "$0")/.."

# Machine-readable run records (the sensorlint findings artifact and
# the fresh bench snapshot the gate compares) are archived side by
# side under artifacts/, which is gitignored.
mkdir -p artifacts

echo "== tier 1: go build ./... && go test ./..."
go build ./...
go test ./...

echo "== tier 2: gofmt -l ."
# Any file gofmt would rewrite fails the gate (gofmt -l exits 0 either
# way, so its listing is the verdict).
unformatted="$(gofmt -l .)"
[ -z "$unformatted" ] || { echo "gofmt would reformat:" >&2; echo "$unformatted" >&2; exit 1; }

echo "== tier 2: go vet ./..."
go vet ./...

echo "== tier 2: go test -race ./..."
go test -race ./...

echo "== tier 2: go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "== tier 2: the distributed failover test, 100 times"
# Its fault-injected worker must die holding a lease in every run, not
# only when it wins a race with the survivor; a reintroduced race fails
# here rather than flaking one shuffled run in dozens.
go test -run '^TestDistributedMergesByteIdentical$' -count=100 ./internal/dist

echo "== tier 2: fuzz the cell and analytic point codecs (fixed short budget)"
# decodeCell and decodePoints read disk-cache bytes they cannot trust;
# the committed corpus under internal/experiments/testdata/fuzz runs in
# tier 1, this step explores beyond it for a fixed time.
go test -run '^$' -fuzz '^FuzzDecodeCell$' -fuzztime 10s ./internal/experiments

echo "== tier 2: fuzz the deployment build against its reference (fixed short budget)"
# Build must reproduce the closure-based reference build's lists in
# order and its gains bit for bit; the committed corpus under
# internal/deploy/testdata/fuzz runs in tier 1.
go test -run '^$' -fuzz '^FuzzBuild$' -fuzztime 10s ./internal/deploy

echo "== tier 2: fuzz the analytic kernel against its naive integrand (fixed short budget)"
# Run's geometry-table path must equal the naive integrand's bit for
# bit in every model mode, also where g(x)·p runs past the dense μ rows;
# the committed corpus under internal/analytic/testdata/fuzz runs in
# tier 1.
go test -run '^$' -fuzz '^FuzzAnalyticRun$' -fuzztime 10s ./internal/analytic

echo "== tier 2: fuzz the cache's disk-entry read path (fixed short budget)"
# HasResult and Get read disk entries a killed process may have torn;
# an unusable entry must degrade to a counted, self-healing miss. The
# committed corpus under internal/engine/testdata/fuzz runs in tier 1.
go test -run '^$' -fuzz '^FuzzCacheDiskEntry$' -fuzztime 10s ./internal/engine

echo "== tier 2: fuzz the coordinator's request handling (fixed short budget)"
# Leases, heartbeats, result posts, status reads, clock advances and
# raw bodies in any order must keep every job in one state, ingest each
# result once, and answer only known statuses with checksummed bodies.
# The committed corpus under internal/dist/testdata/fuzz runs in tier 1.
go test -run '^$' -fuzz '^FuzzCoordinatorRequest$' -fuzztime 10s ./internal/dist

echo "== tier 2: fuzz serve's query parsing (fixed short budget)"
# Any query string, with or without If-None-Match, on the three data
# routes of a warm server must answer 200, 304, 400 or 404, and a 200
# must carry the body and ETag its key answered before fuzzing. The
# committed corpus under internal/serve/testdata/fuzz runs in tier 1.
go test -run '^$' -fuzz '^FuzzServeQuery$' -fuzztime 10s ./internal/serve

echo "== tier 2: go run ./cmd/sensorlint ./... (ratchet + findings artifact)"
# The committed baseline is empty on main (TestDriverRepoIsClean
# asserts it); passing it anyway keeps this the one canonical
# invocation for forks that do carry frozen debt.
go run ./cmd/sensorlint -baseline sensorlint.baseline \
    -artifact artifacts/sensorlint.json ./...

echo "== tier 2: bench regression gate (smoke run vs latest committed BENCH_<n>.json)"
# The smoke run uses the baseline's own benchtime, so both sides average
# the same number of iterations: a single microsecond-scale iteration
# varies several-fold on a shared host. The gate's ns/op tolerance is
# loose; allocs/op is nearly deterministic and gated tightly. See
# internal/bench for the ratios.
latest_bench="$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)"
benchtime="$(sed -n 's/^ *"benchtime": *"\([^"]*\)".*/\1/p' "$latest_bench")"
scripts/bench.sh artifacts/bench.json "${benchtime:-1x}"
go run ./cmd/benchgate -baseline "$latest_bench" -current artifacts/bench.json

echo "== tier 2: two-process shard + merge smoke (fig4)"
# Two concurrent shard processes populate one cache directory; the
# merge assembles the figure strictly from the cache and must render
# byte-identically to a direct single-process run.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"; [ -z "${serve_pid:-}" ] || kill "$serve_pid" 2>/dev/null || true' EXIT
go build -o "$tmp/experiments" ./cmd/experiments
"$tmp/experiments" -figure fig4 -quick -out "$tmp/direct.txt"
"$tmp/experiments" -figure fig4 -quick -cache-dir "$tmp/cache" -shard 0/2 &
shard0=$!
"$tmp/experiments" -figure fig4 -quick -cache-dir "$tmp/cache" -shard 1/2
wait "$shard0"
"$tmp/experiments" -figure fig4 -quick -cache-dir "$tmp/cache" -merge 2 -out "$tmp/merged.txt"
cmp "$tmp/direct.txt" "$tmp/merged.txt"
# Each shard process appended its results to one segment of its own,
# and the merge stored nothing: exactly two files, both segments, and
# no temp files.
files="$(ls "$tmp/cache" | wc -l)"
segments="$(ls "$tmp/cache" | grep -c '\.seg$' || true)"
[ "$files" -eq 2 ] && [ "$segments" -eq 2 ] || {
    echo "shard cache holds $files files ($segments segments), want 2 segments:" >&2
    ls -l "$tmp/cache" >&2
    exit 1
}

echo "== tier 2: -skip-sim outside -figure all exits 2"
set +e
"$tmp/experiments" -figure fig8 -quick -skip-sim >/dev/null 2>&1
skip_rc=$?
set -e
[ "$skip_rc" -eq 2 ] || { echo "-figure fig8 -skip-sim exited $skip_rc, want 2" >&2; exit 1; }

echo "== tier 2: a negative -runs, a bad -deg-rho, a bad serve budget, a non-positive -lease-ttl, a bad analyze -step or simulate -p exits 2; a non-finite analyze -rho or -p exits 1"
# -runs 0 keeps the preset's run count; a negative count is a usage
# error, not a silent default. A density no deployment can place fails
# before any job is built. A serve budget must be a finite rate >= 0
# and its burst and in-flight bound counts >= 0, with or without -serve.
# A lease TTL must be positive, with or without -coordinator.
for args in "-runs -3" "-deg-rho -1" "-deg-rho NaN" \
    "-serve-budget NaN" "-serve-budget -1" "-serve-burst -1" "-serve-inflight -1" \
    "-lease-ttl 0" "-lease-ttl -1s"; do
    set +e
    # shellcheck disable=SC2086
    "$tmp/experiments" -figure degradation -quick $args >/dev/null 2>&1
    rc=$?
    set -e
    [ "$rc" -eq 2 ] || { echo "-figure degradation $args exited $rc, want 2" >&2; exit 1; }
done
# A burst (or in-flight bound) without -serve-budget would configure
# nothing: it is a usage error, not a strict server. A server that
# starts instead runs until the timeout kills it (exit 124).
set +e
timeout 30 "$tmp/experiments" -quick -cache-dir "$tmp/empty" -serve 127.0.0.1:0 -serve-burst 5 \
    >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "-serve -serve-burst 5 without -serve-budget exited $rc, want 2" >&2; exit 1; }
# A NaN or infinite density, or a NaN probability, fails model
# validation: exit 1, as -rho -5 does. A sweep step outside (0, 1], or
# one too fine for its grid to fit, is a usage error. Go exits 2 on a
# panic too, so the step checks also require a stderr without one. A PB
# probability outside [0, 1] is a usage error.
go build -o "$tmp/analyze" ./cmd/analyze
go build -o "$tmp/simulate" ./cmd/simulate
for args in "-rho NaN" "-rho Inf" "-p NaN"; do
    set +e
    # shellcheck disable=SC2086
    "$tmp/analyze" $args >/dev/null 2>&1
    rc=$?
    set -e
    [ "$rc" -eq 1 ] || { echo "analyze $args exited $rc, want 1" >&2; exit 1; }
done
for step in NaN 0 1e-300; do
    set +e
    "$tmp/analyze" -sweep -step "$step" >/dev/null 2>"$tmp/analyze.err"
    rc=$?
    set -e
    [ "$rc" -eq 2 ] && ! grep -q 'panic:' "$tmp/analyze.err" || {
        echo "analyze -sweep -step $step exited $rc, want 2 without a panic:" >&2
        cat "$tmp/analyze.err" >&2
        exit 1
    }
done
for p in 2 NaN; do
    set +e
    "$tmp/simulate" -p "$p" >/dev/null 2>&1
    rc=$?
    set -e
    [ "$rc" -eq 2 ] || { echo "simulate -p $p exited $rc, want 2" >&2; exit 1; }
done

echo "== tier 2: committed full-report artifacts match a fresh -figure all"
# report_full.txt and results/ are the paper-preset report EXPERIMENTS.md
# cites; regenerate both and compare byte for byte, in both directions.
"$tmp/experiments" -figure all -out "$tmp/report_full.txt" -csv-dir "$tmp/results"
cmp report_full.txt "$tmp/report_full.txt"
for f in results/*.csv "$tmp"/results/*.csv; do
    cmp "results/${f##*/}" "$tmp/results/${f##*/}"
done

echo "== tier 2: sharded all smoke (the union of every figure's job set)"
# "all" shards as one job set: both surfaces, the analytic variants cfm,
# carrier, slots and field draw on, fig12sim's flooding cells, costfn's
# ACK cells and the percolation cells. Two shard processes fill one
# cache and the merged report must render byte-identically to the
# direct run.
"$tmp/experiments" -figure all -quick -out "$tmp/all-direct.txt"
"$tmp/experiments" -figure all -quick -cache-dir "$tmp/allcache" -shard 0/2 &
shard0=$!
"$tmp/experiments" -figure all -quick -cache-dir "$tmp/allcache" -shard 1/2
wait "$shard0"
"$tmp/experiments" -figure all -quick -cache-dir "$tmp/allcache" -merge 2 -out "$tmp/all-merged.txt"
cmp "$tmp/all-direct.txt" "$tmp/all-merged.txt"

echo "== tier 2: sharded mumode smoke (four analytic surfaces, one per mu mode)"
# Of the figures outside "all", mumode and refinedcfm draw on job sets
# the all smoke does not cover. mumode's four surfaces differ only in
# the model's mu evaluation mode, which their point fingerprints carry:
# two shard processes fill one cache, and the merged figure must render
# byte-identically to the direct run.
"$tmp/experiments" -figure mumode -quick -out "$tmp/mumode-direct.txt"
"$tmp/experiments" -figure mumode -quick -cache-dir "$tmp/mumodecache" -shard 0/2 &
shard0=$!
"$tmp/experiments" -figure mumode -quick -cache-dir "$tmp/mumodecache" -shard 1/2
wait "$shard0"
"$tmp/experiments" -figure mumode -quick -cache-dir "$tmp/mumodecache" -merge 2 \
    -out "$tmp/mumode-merged.txt"
cmp "$tmp/mumode-direct.txt" "$tmp/mumode-merged.txt"

echo "== tier 2: sharded shootout slice smoke (one density, CFM/CAM/SINR columns)"
# A one-density slice of the cross-scheme shootout campaign through the
# same shard/merge machinery: two shard processes fill one cache, and
# the merged figure must render byte-identically to the direct run.
# The slice also renders on a 1-worker and a 4-worker engine, whose
# cells share the study's deployment pool serially and under
# contention: both must match the direct run.
"$tmp/experiments" -figure shootout -quick -shoot-rhos 30 -out "$tmp/shoot-direct.txt"
for w in 1 4; do
    "$tmp/experiments" -figure shootout -quick -shoot-rhos 30 -workers "$w" \
        -out "$tmp/shoot-w$w.txt"
    cmp "$tmp/shoot-direct.txt" "$tmp/shoot-w$w.txt"
done
"$tmp/experiments" -figure shootout -quick -shoot-rhos 30 \
    -cache-dir "$tmp/shootcache" -shard 0/2 &
shard0=$!
"$tmp/experiments" -figure shootout -quick -shoot-rhos 30 \
    -cache-dir "$tmp/shootcache" -shard 1/2
wait "$shard0"
"$tmp/experiments" -figure shootout -quick -shoot-rhos 30 \
    -cache-dir "$tmp/shootcache" -merge 2 -out "$tmp/shoot-merged.txt"
cmp "$tmp/shoot-direct.txt" "$tmp/shoot-merged.txt"

echo "== tier 2: sharded hetero smoke (a cell study with its own replication seeds)"
# The heterogeneity study samples a fresh hotspot field per replication
# from derived seeds; two shard processes fill one cache with its cells
# and the merged figure must render byte-identically to the direct run.
"$tmp/experiments" -figure hetero -quick -runs 2 -out "$tmp/hetero-direct.txt"
"$tmp/experiments" -figure hetero -quick -runs 2 \
    -cache-dir "$tmp/heterocache" -shard 0/2 &
shard0=$!
"$tmp/experiments" -figure hetero -quick -runs 2 \
    -cache-dir "$tmp/heterocache" -shard 1/2
wait "$shard0"
"$tmp/experiments" -figure hetero -quick -runs 2 \
    -cache-dir "$tmp/heterocache" -merge 2 -out "$tmp/hetero-merged.txt"
cmp "$tmp/hetero-direct.txt" "$tmp/hetero-merged.txt"

echo "== tier 2: sharded degradation smoke (24 pooled cells at one density)"
# The other large pooled study: every (scheme, crash, loss) cell shares
# the replications' deployments. Two shard processes fill one cache and
# the merged figure must render byte-identically to the direct run.
"$tmp/experiments" -figure degradation -quick -runs 2 -out "$tmp/deg-direct.txt"
"$tmp/experiments" -figure degradation -quick -runs 2 \
    -cache-dir "$tmp/degcache" -shard 0/2 &
shard0=$!
"$tmp/experiments" -figure degradation -quick -runs 2 \
    -cache-dir "$tmp/degcache" -shard 1/2
wait "$shard0"
"$tmp/experiments" -figure degradation -quick -runs 2 \
    -cache-dir "$tmp/degcache" -merge 2 -out "$tmp/deg-merged.txt"
cmp "$tmp/deg-direct.txt" "$tmp/deg-merged.txt"

echo "== tier 2: merge -json missing-shard smoke"
# An empty cache must fail the merge with exit 3 and emit the missing
# shard set machine-readably on stdout. field's five points are one
# per field radius P, so the report must list them under five names.
set +e
"$tmp/experiments" -figure fig4 -quick -cache-dir "$tmp/empty" -merge 2 -json \
    >"$tmp/missing.json" 2>/dev/null
json_rc=$?
"$tmp/experiments" -figure field -quick -cache-dir "$tmp/empty" -merge 2 -json \
    >"$tmp/missing-field.json" 2>/dev/null
field_rc=$?
set -e
[ "$json_rc" -eq 3 ] || { echo "merge -json on empty cache exited $json_rc, want 3" >&2; exit 1; }
grep -q '"missingShards"' "$tmp/missing.json"
grep -q '"fingerprint"' "$tmp/missing.json"
[ "$field_rc" -eq 3 ] || { echo "field merge -json on empty cache exited $field_rc, want 3" >&2; exit 1; }
field_jobs="$(grep -c '"fingerprint"' "$tmp/missing-field.json")"
field_names="$(grep -o '"name": *"[^"]*"' "$tmp/missing-field.json" | sort -u | wc -l)"
[ "$field_jobs" -eq 5 ] && [ "$field_names" -eq 5 ] || {
    echo "field merge -json lists $field_jobs missing jobs under $field_names names, want 5 and 5" >&2; exit 1; }

echo "== tier 2: coordinator + 2-worker distributed smoke (fig4, one worker dies mid-run)"
# A coordinator leases the fig4 job set to two workers. One worker is
# fault-injected (-worker-fail-after) to exit while holding a lease;
# the lease expires, fails over to the survivor, and the merged figure
# must still be byte-identical to the direct single-process run.
"$tmp/experiments" -figure fig4 -quick -cache-dir "$tmp/dcache" \
    -coordinator 127.0.0.1:0 -lease-ttl 2s \
    -dist-addr-file "$tmp/addr" &
coord=$!
i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "coordinator never published its address" >&2; exit 1; }
    sleep 0.1
done
url="http://$(cat "$tmp/addr")"
set +e
"$tmp/experiments" -figure fig4 -quick -worker "$url" -worker-id w-dying -worker-fail-after 1
dying_rc=$?
set -e
[ "$dying_rc" -eq 7 ] || { echo "fault-injected worker exited $dying_rc, want 7" >&2; exit 1; }
"$tmp/experiments" -figure fig4 -quick -worker "$url" -worker-id w-survivor
wait "$coord"
"$tmp/experiments" -figure fig4 -quick -cache-dir "$tmp/dcache" -merge 2 -out "$tmp/dist.txt"
cmp "$tmp/direct.txt" "$tmp/dist.txt"

echo "== tier 2: chaos-transport distributed smoke (fig4, hostile faults, one worker dies)"
# The same campaign under a seed-deterministic hostile transport: both
# workers' HTTP clients drop, delay, duplicate, truncate, and corrupt
# traffic (-chaos-profile hostile). The run must still converge, the
# coordinator must report zero duplicate cache ingests (every replayed
# delivery absorbed at the protocol layer), and the merge must stay
# byte-identical to the direct run.
"$tmp/experiments" -figure fig4 -quick -cache-dir "$tmp/ccache" \
    -coordinator 127.0.0.1:0 -lease-ttl 2s \
    -dist-addr-file "$tmp/caddr" -out "$tmp/coord-report.txt" &
coord=$!
i=0
while [ ! -s "$tmp/caddr" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "chaos coordinator never published its address" >&2; exit 1; }
    sleep 0.1
done
url="http://$(cat "$tmp/caddr")"
set +e
"$tmp/experiments" -figure fig4 -quick -worker "$url" -worker-id w-chaos-dying \
    -worker-fail-after 1 -chaos-profile hostile -chaos-seed 42 2>/dev/null
dying_rc=$?
set -e
[ "$dying_rc" -eq 7 ] || { echo "chaos fault-injected worker exited $dying_rc, want 7" >&2; exit 1; }
"$tmp/experiments" -figure fig4 -quick -worker "$url" -worker-id w-chaos-survivor \
    -chaos-profile hostile -chaos-seed 43 2>/dev/null
wait "$coord"
grep -q " 0 dup-ingests" "$tmp/coord-report.txt" || {
    echo "chaos run leaked duplicate ingests past the protocol layer:" >&2
    cat "$tmp/coord-report.txt" >&2
    exit 1
}
"$tmp/experiments" -figure fig4 -quick -cache-dir "$tmp/ccache" -merge 2 -out "$tmp/chaos.txt"
cmp "$tmp/direct.txt" "$tmp/chaos.txt"

echo "== tier 2: serve load smoke (loadgen burst against -serve over the warm cache)"
# The snapshot-serving tier over the fig4-warmed cache from the shard
# smoke: a short closed-loop loadgen burst must complete with zero
# errors and a generous p99 bound, and SIGINT must shut the server
# down gracefully (exit 0). The loadgen report is archived.
go build -o "$tmp/loadgen" ./cmd/loadgen
"$tmp/experiments" -quick -cache-dir "$tmp/cache" -serve 127.0.0.1:0 \
    -dist-addr-file "$tmp/serveaddr" 2>"$tmp/serve.log" &
serve_pid=$!
i=0
while [ ! -s "$tmp/serveaddr" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "-serve never published its address" >&2; cat "$tmp/serve.log" >&2; exit 1; }
    sleep 0.1
done
"$tmp/loadgen" -url "http://$(cat "$tmp/serveaddr")" -surfaces analytic -quick \
    -qps 150 -duration 2s -name serve-smoke \
    -max-error-rate 0 -max-p99 750ms -out artifacts/loadgen.json
kill -INT "$serve_pid"
wait "$serve_pid" || { echo "-serve did not shut down cleanly" >&2; cat "$tmp/serve.log" >&2; exit 1; }
serve_pid=""

echo "all checks passed"
