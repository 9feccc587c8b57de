#!/usr/bin/env sh
# bench.sh runs the repo's key benchmarks and writes the perf
# trajectory snapshot BENCH_<n>.json (ns/op, B/op, allocs/op per
# bench, plus a loadgen latency section). The micro-bench set covers
# the hot paths the snapshot tracks: the slot-aligned simulator
# (SimulatorDenseFlooding), the analytic surface behind Fig. 4
# (Fig4Reachability), the simulated sweep behind Fig. 8
# (Fig8SimReachability), the engine-scheduled campaign
# (EngineCampaign), the engine's per-job scheduling cost on no-op jobs
# (EngineOverhead), the cross-scheme channel-model shootout
# (ShootoutCampaign), the serving fast path (ServeOptimal /
# ServeSurfaceRow / ServeSurfaceFull / ServeShootoutCell — steady-state
# snapshot hits), a refresh of published tables, which reads nothing
# (ServeRefresh), and the serving load path: a fresh server's tables
# loaded from the cache and rendered by Warm (ServeWarm), plus the
# layer benches under the shootout: the plain deployment build
# (GenerateRho60), the largest plain sensing build
# (GenerateRho140Sensing), the SINR deployment build with its gain
# tables (GenerateSINR, at the shootout's densities 40 and 100), the
# placement replay every pooled run pays instead of a build (Place, at
# the same densities), an unpooled simulation run that pays a build and
# the connectivity walk (RunSyncRho60) and its asynchronous counterpart
# (RunAsyncRho60), the CAM and SINR slot resolvers (ResolveSlotDense,
# ResolveSlotSINR), one analytic μ/ring-recursion point (RunRho60), its
# Appendix A carrier-sensing counterpart on the μ' path
# (RunRho140CarrierSense), the optimal-probability law calibration
# behind the law-tuned schemes (CalibrateLaw), the engine cache's
# disk layer at a distributed analytic campaign's 700 entries: stores
# through Put and IngestResult, and a cold read-back (CacheDisk), and
# the dist layer's per-job cost: a loopback coordinator and one worker
# leasing, running, posting and ingesting trivial jobs (DistRoundTrip),
# and the job-set build every serve table load, merge and shard pays
# before its first cache read: the paper presets' analytic (700 jobs)
# and simulated (140 jobs) surfaces, names and fingerprints included
# (SurfaceJobs).
#
# The five serve handler benches (ServeOptimal, ServeSurfaceRow,
# ServeSurfaceFull, ServeShootoutCell, ServeRefresh) take a few
# microseconds per op, so a handful of iterations times scheduler noise
# more than the handler: over six counts each on a 2-vCPU Xeon,
# ServeShootoutCell read 2.8-7.5 µs at 5x and 2.7-4.1 µs at 5000x
# (1.9-2.6 and 2.3-2.4 µs on a quieter run), and a 5x check.sh run
# once failed the gate's 4x ns/op ratio on it. They run in a go test
# of their own, at 1000 times an `Nx` benchtime (5x becomes 5000x).
# The snapshot still records the benchtime given, and check.sh passes
# a baseline's recorded benchtime back in, so both sides of the gate
# scale alike.
#
# The latency tier then boots a real `experiments -serve` over a
# warmed quick cache, drives it with cmd/loadgen (closed loop, mixed
# query distribution), and merges the p50/p90/p99 percentiles into the
# snapshot's "latency" section, which cmd/benchgate gates alongside
# the micro-benches.
#
# Usage: scripts/bench.sh [output.json] [benchtime]
#   output.json defaults to BENCH.json in the repo root
#   benchtime   defaults to 1x (raise, e.g. 5x, for steadier numbers)
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH.json}"
benchtime="${2:-1x}"

pattern='BenchmarkSimulatorDenseFlooding$|BenchmarkFig4Reachability$|BenchmarkFig8SimReachability$|BenchmarkEngineCampaign/workers=1$|BenchmarkEngineOverhead$|BenchmarkShootoutCampaign$|BenchmarkServeWarm$|BenchmarkGenerateRho60$|BenchmarkGenerateRho140Sensing$|BenchmarkGenerateSINR$/rho=|BenchmarkPlace$/rho=|BenchmarkRunSyncRho60$|BenchmarkRunAsyncRho60$|BenchmarkResolveSlotDense$|BenchmarkResolveSlotSINR$|BenchmarkRunRho60$|BenchmarkRunRho140CarrierSense$|BenchmarkCalibrateLaw$|BenchmarkCacheDisk$|BenchmarkDistRoundTrip$|BenchmarkSurfaceJobs$'
serve_pattern='BenchmarkServeOptimal$|BenchmarkServeSurfaceRow$|BenchmarkServeSurfaceFull$|BenchmarkServeShootoutCell$|BenchmarkServeRefresh$'
case "$benchtime" in
*x) serve_benchtime="${benchtime%x}000x" ;;
*) serve_benchtime="$benchtime" ;;
esac

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"; [ -z "${serve_pid:-}" ] || kill "$serve_pid" 2>/dev/null || true' EXIT

echo "== bench: $pattern (benchtime=$benchtime)" >&2
go test -run=NONE -bench="$pattern" -benchtime="$benchtime" -benchmem . ./internal/serve/ ./internal/deploy/ ./internal/channel/ ./internal/sim/ ./internal/analytic/ ./internal/engine/ ./internal/dist/ \
	> "$tmp/bench.txt"
echo "== bench: $serve_pattern (benchtime=$serve_benchtime)" >&2
go test -run=NONE -bench="$serve_pattern" -benchtime="$serve_benchtime" -benchmem ./internal/serve/ \
	>> "$tmp/bench.txt"
# Copy the raw run to stderr through the open descriptor: reopening
# /dev/stderr (tee does) truncates the log when stderr is a regular
# file, as in `scripts/check.sh > check.log 2>&1`.
cat "$tmp/bench.txt" >&2
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
		/^Benchmark/ && NF >= 7 {
			name = $1
			sub(/-[0-9]+$/, "", name)
			sub(/^Benchmark/, "", name)
			benches[++n] = sprintf(\
				"    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
				name, $3, $5, $7)
		}
		END {
			if (n == 0) { print "bench.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
			printf "{\n  \"date\": \"%s\",\n  \"benchtime\": \"'"$benchtime"'\",\n  \"benchmarks\": [\n", date
			for (i = 1; i <= n; i++) printf "%s%s\n", benches[i], (i < n ? "," : "")
			printf "  ]\n}\n"
		}
	' "$tmp/bench.txt" > "$out"

echo "== latency tier: loadgen against a warmed -serve instance" >&2
go build -o "$tmp/experiments" ./cmd/experiments
go build -o "$tmp/loadgen" ./cmd/loadgen
"$tmp/experiments" -figure fig4 -quick -cache-dir "$tmp/cache" >/dev/null
"$tmp/experiments" -quick -cache-dir "$tmp/cache" -serve 127.0.0.1:0 \
    -dist-addr-file "$tmp/addr" 2>/dev/null &
serve_pid=$!
i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "bench.sh: -serve never published its address" >&2; exit 1; }
    sleep 0.1
done
"$tmp/loadgen" -url "http://$(cat "$tmp/addr")" -surfaces analytic -quick \
    -name serve-analytic -qps 200 -duration 3s -out "$tmp/loadgen.json" \
    -bench-merge "$out" >/dev/null
kill -INT "$serve_pid"
wait "$serve_pid"
serve_pid=""

echo "wrote $out" >&2
