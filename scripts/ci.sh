#!/usr/bin/env bash
# Single CI entrypoint: lint + tier-1 test suite.
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh --lint     # lint only
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint: no bare print() in src/repro =="
python scripts/check_no_bare_print.py

echo "== lint: import layering (substrate/models/core/apps DAG) =="
python scripts/check_layering.py

if [[ "${1:-}" == "--lint" ]]; then
    exit 0
fi

echo "== tier-1 tests =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q

echo "== cloud simulator equivalence (serial and threaded) =="
REPRO_MAX_WORKERS=1 PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest -x -q tests/test_cloudsim_equivalence.py
env -u REPRO_MAX_WORKERS PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest -x -q tests/test_cloudsim_equivalence.py

echo "== benchmark harness self-check (every workload path, tiny sizes) =="
# perfbench traces serving entry points by name and reads controller and
# checkpoint fields; a refactor that moves them fails here, not in a
# benchmark run.
python3 perfbench/run.py --selfcheck

echo "== fault-injection smoke =="
python scripts/fault_smoke.py

echo "== perf smoke (fast-path parity + quick benchmarks) =="
python scripts/perf_smoke.py

echo "== search-perf smoke (incremental surrogate refit budget + parity) =="
python scripts/search_perf_smoke.py

echo "== model-family smoke (non-default family end to end) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli fit gl-30m \
    --budget tiny --family gru --max-iters 2 --epochs 3

echo "== multivariate smoke (D=3 correlated trace end to end) =="
MV_DIR="$(mktemp -d)"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli fit mv-30m \
    --budget tiny --family lstm --max-iters 2 --epochs 2 \
    --channels requests,cpu,memory --target-channel 1 \
    --save "$MV_DIR/model"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli simulate mv-30m \
    --guarded --monitor --repair interpolate --target-channel 1 \
    --model-dir "$MV_DIR/model" --start-frac 0.9
rm -rf "$MV_DIR"

echo "== serving chaos (guarded simulate must survive injected faults) =="
SERVE_DIR="$(mktemp -d)"
BENCH_DIR="$(mktemp -d)"
trap 'rm -rf "$SERVE_DIR" "$BENCH_DIR"' EXIT
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli fit fb-10m \
    --budget tiny --max-iters 2 --epochs 3 --save "$SERVE_DIR/model"
REPRO_FAULTS="nan@serve.predict:*" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli simulate \
    fb-10m --guarded --model-dir "$SERVE_DIR/model"
REPRO_FAULTS="corrupt@model.load:1" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli simulate \
    fb-10m --guarded --model-dir "$SERVE_DIR/model"

echo "== streaming chaos (kill mid-stream; resume must be bit-for-bit) =="
STREAM_ARGS=(stream fb-10m --model-dir "$SERVE_DIR/model" --chunk-size 8
    --checkpoint-every 1 --deadline-s 7200 --monitor)
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli \
    "${STREAM_ARGS[@]}" --checkpoint-dir "$SERVE_DIR/ck-ref" \
    --report-out "$SERVE_DIR/ref.json"
if REPRO_FAULTS="kill@stream.chunk:3" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli \
    "${STREAM_ARGS[@]}" --checkpoint-dir "$SERVE_DIR/ck" \
    --report-out "$SERVE_DIR/crashed.json" 2>/dev/null; then
    echo "streaming chaos FAILED: injected kill did not crash the stream"
    exit 1
fi
[[ ! -e "$SERVE_DIR/crashed.json" ]] \
    || { echo "streaming chaos FAILED: crashed run wrote a report"; exit 1; }
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli \
    "${STREAM_ARGS[@]}" --checkpoint-dir "$SERVE_DIR/ck" --resume \
    --report-out "$SERVE_DIR/resumed.json"
python - "$SERVE_DIR/ref.json" "$SERVE_DIR/resumed.json" <<'PYEOF'
import json, sys
ref, res = (json.load(open(p)) for p in sys.argv[1:3])
assert ref["schedule_hex"] == res["schedule_hex"], \
    "provisioning schedule diverged after resume"
assert ref == res, "resumed ServingReport is not bit-for-bit identical"
print("streaming chaos OK: resume bit-for-bit identical "
      f"({len(ref['schedule_hex']) // 16} intervals)")
PYEOF

echo "== monitoring smoke (injected serving drift must fire detectors + refit) =="
MON_OUT="$(REPRO_FAULTS='drift@serve.predict:60=4' \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli simulate \
    gl-30m --adaptive --monitor --slo-mape 60 \
    --budget tiny --max-iters 2 --epochs 3)"
printf '%s\n' "$MON_OUT"
grep -q "FIRED" <<<"$MON_OUT" \
    || { echo "monitoring smoke FAILED: no drift detector fired"; exit 1; }
grep -qE "drift-triggered refits: [1-9]" <<<"$MON_OUT" \
    || { echo "monitoring smoke FAILED: no drift-triggered refit"; exit 1; }

echo "== autoscale-chaos (hybrid must survive faults + flash crowds) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli autoscale --quick
REPRO_BENCH_QUICK=1 REPRO_BENCH_ARTIFACT_DIR="$BENCH_DIR" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q \
    benchmarks/bench_autoscale_chaos.py
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - "$BENCH_DIR/BENCH_autoscale.json" <<'PYEOF'
import json, math, sys
from repro.autoscale.scenarios import SCENARIO_NAMES
cells = json.load(open(sys.argv[1]))["scenarios"]
missing = sorted(set(SCENARIO_NAMES) - set(cells))
assert not missing, f"BENCH_autoscale.json lacks scenario cells {missing}"
for scenario in SCENARIO_NAMES:
    for policy in ("predictive", "reactive", "hybrid"):
        row = cells[scenario]["policies"][policy]
        assert math.isfinite(row["underprovision_rate_pct"]), (scenario, policy)
row = cells["nan_flash"]["policies"]["hybrid"]
assert row["underprovision_rate_pct"] <= 15.0, \
    f"hybrid under injected nan + flash crowd: {row['underprovision_rate_pct']:.2f}% underprovision"
assert row["controller"]["decided_by"].get("reactive", 0) > 0, \
    "open breaker must shift hybrid provenance to the reactive tier"
print("BENCH_autoscale.json schema OK")
PYEOF

echo "== serving-stream bench (quick) =="
REPRO_BENCH_QUICK=1 REPRO_BENCH_ARTIFACT_DIR="$BENCH_DIR" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q \
    benchmarks/bench_serving_stream.py
python - "$BENCH_DIR/BENCH_serving.json" <<'PYEOF'
import json, math, sys
metrics = json.load(open(sys.argv[1]))["metrics"]
for gauge in ("bench.serving.stream_intervals_per_s",
              "bench.serving.pipeline_intervals_per_s",
              "bench.serving.chunked_intervals_per_s",
              "bench.serving.cloudsim_jobs_per_s",
              "bench.serving.checkpoint_overhead_pct",
              "bench.serving.checkpoint_ms",
              "bench.serving.monitor_overhead_pct",
              "bench.serving.predict_p50_ms",
              "bench.serving.predict_p99_ms"):
    snap = metrics.get(gauge)
    assert snap and snap["kind"] == "gauge" and math.isfinite(snap["value"]), \
        f"BENCH_serving.json: bad gauge {gauge}: {snap}"
print("BENCH_serving.json schema OK")
PYEOF

echo "== search-loop bench (quick) =="
REPRO_BENCH_QUICK=1 REPRO_BENCH_ARTIFACT_DIR="$BENCH_DIR" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q \
    benchmarks/bench_search_loop.py
python - "$BENCH_DIR/BENCH_search.json" <<'PYEOF'
import json, math, sys
metrics = json.load(open(sys.argv[1]))["metrics"]
for gauge in ("bench.search.tell_ms_p50",
              "bench.search.suggest_ms_p50",
              "bench.search.tell_speedup"):
    snap = metrics.get(gauge)
    assert snap and snap["kind"] == "gauge" and math.isfinite(snap["value"]), \
        f"BENCH_search.json: bad gauge {gauge}: {snap}"
print("BENCH_search.json schema OK")
PYEOF

echo "== bench regression check (schema-only under REPRO_BENCH_QUICK) =="
REPRO_BENCH_QUICK=1 python scripts/check_bench.py --candidate-dir "$BENCH_DIR"
