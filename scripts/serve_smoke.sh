#!/usr/bin/env bash
# Serving-mode smoke: build leaserved + leaload, run a short mixed-workload
# load against a loopback daemon, and require zero failed requests, warm
# template-cache traffic (hits and incremental solves), a 429 under
# deliberate overload, a 32-client run on a larger corpus that keeps the
# warm-cache ratio, and a clean SIGTERM drain. CI runs this after the unit tests; it is also handy
# locally: scripts/serve_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
bin="$(mktemp -d)"
# Kill any daemon still running on exit: a gate failing mid-script must not
# leak servers that hold the ports and poison the next run. kill fails when
# every daemon has already exited (the passing path); under set -e that
# failure would abort the trap with status 1, so it is ignored here.
trap 'kill ${srv:-} ${srv2:-} ${srv3:-} ${srv4:-} ${srv5:-} ${col:-} 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/leaserved" ./cmd/leaserved
go build -o "$bin/leaload" ./cmd/leaload
go build -o "$bin/leaperf" ./cmd/leaperf

# Perf-trajectory store: one JSONL record per run, appended by leaload and
# the leaperf collector below; CI uploads the directory as an artifact and
# gates on it with `leaperf -regress`.
traj="${TRAJECTORY_DIR:-trajectory}"

addr=127.0.0.1:8311
"$bin/leaserved" -addr "$addr" -workers 4 -queue 64 >"$bin/serve.log" 2>&1 &
srv=$!
for i in $(seq 1 50); do
  curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "http://$addr/healthz" >/dev/null

# Mixed closed-loop load; -strict fails on any failed request and
# -require-warm fails unless the server reports cache hits AND incremental
# solves, so the warm template path is proven, not assumed.
"$bin/leaload" -url "http://$addr" -workers 4 -duration 2s \
  -mix random=1,hlsbench=1,figures=1 -seed 1 -strict -require-warm \
  -json | tee "$bin/load.json"

# Overload: a one-worker, one-slot daemon with its worker and queue pinned by
# slow big-program requests must answer the next request with HTTP 429.
prog='task big\nblock b\nin v0 v1\n'
for i in $(seq 2 120); do
  prog+="v$i = v$((i-1)) + v$((i-2))\n"
done
prog+="v121 = v120 * v119\nout v121\nend\n"
printf '{"program":"%s","options":{"registers":4,"engine":"cyclecancel"}}' "$prog" >"$bin/big.json"

addr2=127.0.0.1:8312
"$bin/leaserved" -addr "$addr2" -workers 1 -queue 1 >"$bin/serve2.log" 2>&1 &
srv2=$!
for i in $(seq 1 50); do
  curl -fsS "http://$addr2/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

saw429=0
for attempt in $(seq 1 5); do
  : >"$bin/codes"
  pids=()
  for i in $(seq 1 24); do
    curl -s -o /dev/null -w '%{http_code}\n' -X POST \
      --data-binary "@$bin/big.json" "http://$addr2/v1/allocate" >>"$bin/codes" &
    pids+=("$!")
  done
  wait "${pids[@]}" || true
  if grep -q '^429$' "$bin/codes"; then
    saw429=1
    break
  fi
done
if [ "$saw429" -ne 1 ]; then
  echo "smoke: no HTTP 429 observed under overload" >&2
  exit 1
fi
echo "smoke: overload produced HTTP 429"
kill -TERM "$srv2"
wait "$srv2"

# Many clients, larger programs: one engine with four workers under 32
# closed-loop clients on 40-instruction programs. The gates: zero failed
# requests (-strict), warm traffic (-require-warm), a warm-hit ratio within
# 2% of the first run's, and a clean drain.
addr3=127.0.0.1:8313
"$bin/leaserved" -addr "$addr3" -workers 4 -queue 256 >"$bin/serve3.log" 2>&1 &
srv3=$!
for i in $(seq 1 50); do
  curl -fsS "http://$addr3/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "http://$addr3/healthz" >/dev/null

"$bin/leaload" -url "http://$addr3" -workers 32 -duration 2s \
  -mix random=1,hlsbench=1,figures=1 -instrs 40 -shapes 6 -seed 1 \
  -strict -require-warm -json >"$bin/load32.json"

python3 - "$bin/load.json" "$bin/load32.json" <<'PY'
import json, sys

first = json.load(open(sys.argv[1]))
many = json.load(open(sys.argv[2]))

def warm_ratio(s):
    total = s["cache_hits"] + s["cache_misses"]
    return s["cache_hits"] / total if total else 0.0

r1, r32 = warm_ratio(first["server"]), warm_ratio(many["server"])
if r32 + 0.02 < r1:
    sys.exit(f"smoke: 32-client warm-hit ratio {r32:.4f} fell below the first run's {r1:.4f}")
print(f"smoke: 32-client run ok — warm ratio {r32:.4f} vs first run {r1:.4f}, "
      f"{many['throughput_rps']:.0f} req/s")
PY

kill -TERM "$srv3"
wait "$srv3"
grep -q 'shutdown clean' "$bin/serve3.log" || {
  echo "smoke: 32-client daemon missing clean-shutdown log line" >&2
  cat "$bin/serve3.log" >&2
  exit 1
}

# Open-loop stage: two fresh daemons with a template cache (8 entries) far
# smaller than the corpus (48 random shapes), each driven at a fixed offered
# rate on a seeded arrival schedule — one with a uniform popularity mix, one
# zipfian. The gates: zero failed requests and zero omitted samples even
# with a cutoff armed (-strict covers both — coordinated omission is
# counted, never silent), a sane steady-state intended-start p99, and the
# zipfian run's warm-cache hit ratio clearly above uniform's (skew must
# translate into cache affinity). The zipfian run's record is kept as the
# BENCH_load.json trajectory artifact.
addr4=127.0.0.1:8314
addr5=127.0.0.1:8315
"$bin/leaserved" -addr "$addr4" -workers 4 -queue 256 -cache 8 >"$bin/serve4.log" 2>&1 &
srv4=$!
"$bin/leaserved" -addr "$addr5" -workers 4 -queue 256 -cache 8 >"$bin/serve5.log" 2>&1 &
srv5=$!
for a in "$addr4" "$addr5"; do
  for i in $(seq 1 50); do
    curl -fsS "http://$a/healthz" >/dev/null 2>&1 && break
    sleep 0.1
  done
  curl -fsS "http://$a/healthz" >/dev/null
done

"$bin/leaload" -url "http://$addr4" -workers 8 -loop open -rate 350 \
  -arrival exp -duration 2s -warmup 500ms -cutoff 2s \
  -mix random=1 -shapes 48 -instrs 10 -seed 8 -dist uniform \
  -strict -json >"$bin/load_uniform.json"

# The leaperf collector samples the zipfian daemon's /metrics (throughput,
# warm-hit ratio, RSS, GC pauses) for the whole open-loop stage and appends a
# kind "smoke" record to the trajectory store; the load run appends its own
# kind "load" record.
"$bin/leaperf" -collect -url "http://$addr5" -dir "$traj" \
  -interval 200ms -duration 3500ms -label serve_smoke/zipfian \
  >"$bin/collect.out" 2>&1 &
col=$!
"$bin/leaload" -url "http://$addr5" -workers 8 -loop open -rate 350 \
  -arrival exp -duration 2s -warmup 500ms -cutoff 2s \
  -mix random=1 -shapes 48 -instrs 10 -seed 8 -dist zipfian:theta=0.99 \
  -strict -json -bench-out "$bin/BENCH_load.json" -trajectory "$traj" \
  >"$bin/load_zipf.json"
wait "$col" || { cat "$bin/collect.out" >&2; exit 1; }
cat "$bin/collect.out"

python3 - "$bin/load_uniform.json" "$bin/load_zipf.json" <<'PY'
import json, sys

uni = json.load(open(sys.argv[1]))
zipf = json.load(open(sys.argv[2]))

for name, rep in (("uniform", uni), ("zipfian", zipf)):
    op = rep["open"]
    if op["omitted"] != 0:
        sys.exit(f"smoke: {name} open-loop run omitted {op['omitted']} samples")
    if op["scheduled"] != op["sent"]:
        sys.exit(f"smoke: {name} scheduled {op['scheduled']} != sent {op['sent']}")
    p99 = op["steady"]["latency"]["p99_ns"]
    if p99 <= 0 or p99 > 250e6:
        sys.exit(f"smoke: {name} steady intended-start p99 {p99/1e6:.1f}ms out of range")

def warm_ratio(rep):
    s = rep["server"]
    total = s["cache_hits"] + s["cache_misses"]
    return s["cache_hits"] / total if total else 0.0

ru, rz = warm_ratio(uni), warm_ratio(zipf)
if rz < ru + 0.05:
    sys.exit(f"smoke: zipfian warm-hit ratio {rz:.4f} not clearly above uniform {ru:.4f}")
zo = zipf["open"]
print(f"smoke: open-loop ok — offered {zipf['offered_rps']:.0f} req/s, "
      f"achieved {zipf['throughput_rps']:.0f} req/s, steady p99 "
      f"{zo['steady']['latency']['p99_ns']/1e6:.1f}ms intended-start "
      f"({zo['steady']['service']['p99_ns']/1e6:.1f}ms send-to-reply), "
      f"warm ratio zipfian {rz:.4f} vs uniform {ru:.4f}")
PY

# Collector gates: its own cost must stay under 1% of the window it watched,
# and the stored smoke record must carry the throughput/warm-ratio summary
# plus non-empty RSS and GC-pause series — the numbers the trend tables and
# the leaperf -regress gate feed on.
python3 - "$bin/collect.out" "$traj/smoke.jsonl" <<'PY'
import json, sys

overhead = None
for line in open(sys.argv[1]):
    if line.startswith("overhead_fraction="):
        overhead = float(line.split("=", 1)[1])
if overhead is None:
    sys.exit("smoke: collector output missing overhead_fraction")
if overhead >= 0.01:
    sys.exit(f"smoke: collector overhead {overhead:.4%} is not under 1%")

with open(sys.argv[2]) as f:
    rec = json.loads([l for l in f if l.strip()][-1])
rows = {r["name"]: r["metrics"] for r in rec["rows"]}
summary = rows.get("summary")
if not summary or summary.get("throughput_rps", 0) <= 0:
    sys.exit(f"smoke: stored record has no throughput summary: {summary}")
if "warm_hit_ratio" not in summary:
    sys.exit("smoke: stored record missing warm_hit_ratio")
for series in ("proc_rss_bytes", "proc_gc_pause_max_ns"):
    env = rows.get(series)
    if not env or env.get("count", 0) <= 0 or env.get("max", 0) <= 0:
        sys.exit(f"smoke: stored record missing {series} series: {env}")
if not rec.get("commit") or not rec.get("host_fingerprint", {}).get("os"):
    sys.exit("smoke: stored record missing provenance stamps")
print(f"smoke: collector ok — overhead {overhead:.4%}, "
      f"{summary['throughput_rps']:.0f} req/s, warm ratio {summary['warm_hit_ratio']:.4f}, "
      f"rss peak {rows['proc_rss_bytes']['max']/2**20:.1f} MiB, "
      f"gc pause max {rows['proc_gc_pause_max_ns']['max']/1e6:.2f} ms")
PY

if [ -n "${BENCH_LOAD_OUT:-}" ]; then
  cp "$bin/BENCH_load.json" "$BENCH_LOAD_OUT"
fi

kill -TERM "$srv4"; wait "$srv4"
kill -TERM "$srv5"; wait "$srv5"

# Graceful drain: SIGTERM must exit 0 and log a clean shutdown.
kill -TERM "$srv"
wait "$srv"
grep -q 'shutdown clean' "$bin/serve.log" || {
  echo "smoke: missing clean-shutdown log line" >&2
  cat "$bin/serve.log" >&2
  exit 1
}
echo "smoke: clean drain confirmed"
