#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: lint, tier-1 tests, goldens
# under one BLAS thread, benchmark self-test, examples, perf smoke, serving
# smoke, bench-history regression check, telemetry sample run.
#
# Usage: scripts/ci.sh [--report-only]
#   --report-only   run the perf benchmark without enforcing min_speedup
#                   (what CI does on pull requests)
set -euo pipefail

cd "$(dirname "$0")/.."

REPORT_ONLY=0
if [[ "${1:-}" == "--report-only" ]]; then
    REPORT_ONLY=1
elif [[ $# -gt 0 ]]; then
    echo "unknown argument: $1 (usage: scripts/ci.sh [--report-only])" >&2
    exit 2
fi

echo "== lint =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks
    # Blocking, matching CI: the tree is formatter-clean and stays that way.
    ruff format --check src tests benchmarks
else
    echo "ruff not installed; skipping lint (CI will run it)"
fi

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

echo "== goldens under one BLAS thread =="
# Bit-identity holds per OpenBLAS thread count: a trained model's embedding
# hash differs between one thread and two.  The golden curves, hashes and
# tables, and node reads over the receptive field against the full forward,
# must hold at one thread as well as at the default.
OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q \
    tests/engine/test_golden_equivalence.py \
    tests/experiments/test_runners.py \
    tests/spec/test_equivalence.py \
    tests/gnn/test_receptive_field.py

echo "== benchmark self-test (perfbench: every workload at its smallest size) =="
# Tier-1 collects only tests/; this stage fails a change that renames or
# moves a callable the benchmark wraps (the layer map in perfbench/tracing.py).
python3 -m pytest perfbench -q

echo "== examples (every examples/*.py must exit 0) =="
# No test runs the examples, and each is a documented user command (the
# quickstart is the README's first).  About 7 minutes on 2 cores.
for example in examples/*.py; do
    echo "-- $example"
    PYTHONPATH=src python "$example"
done

echo "== perf smoke (node sparse path + graph-classification batching) =="
# Covers both committed gates: the CSR-cached node path and the
# block-diagonal graph-batching path (`make perf` / `make bench-gc`).
REPRO_PERF_REPORT_ONLY="$REPORT_ONLY" \
    PYTHONPATH=src python -m pytest benchmarks/test_perf_regression.py -q -s

echo "== float32 smoke (policy-scoped tier-1 subset under REPRO_DTYPE=float32) =="
# End-to-end training/eval/serving plus the dtype/kernel/arena unit tests
# under the float32 policy.  Precision-bound modules that compare against
# float64 numpy references stay on the default-policy run above.
REPRO_DTYPE=float32 PYTHONPATH=src python -m pytest -q \
    tests/core tests/eval tests/serve tests/test_integration.py \
    tests/nn/test_dtype.py tests/nn/test_kernels.py tests/nn/test_arena.py

echo "== kernel smoke (dtype bytes, threaded spmm, arena warmup) =="
# Gated by the "kernels" key in benchmarks/perf_baseline.json; writes
# benchmarks/BENCH_kernels.json.  The thread-speedup gate self-skips
# below 4 usable cores; equality and bytes gates run everywhere.
REPRO_PERF_REPORT_ONLY="$REPORT_ONLY" \
    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py -q -s

echo "== serving smoke (micro-batched queue vs per-request forwards) =="
# Gated by the "serving" key in benchmarks/perf_baseline.json; writes
# benchmarks/BENCH_serving.json (p50/p99 latency, req/s, speedup).
REPRO_PERF_REPORT_ONLY="$REPORT_ONLY" \
    PYTHONPATH=src python -m pytest benchmarks/test_serving.py -q -s

echo "== large-graph smoke (50k-node sampled GCMAE vs full-graph ceiling) =="
# Gated by the "large_graph" key in benchmarks/perf_baseline.json; writes
# benchmarks/BENCH_large_graph.json (sampled epoch seconds, block sizes,
# full-graph extrapolation).  Report-only on PRs like the other perf gates.
REPRO_PERF_REPORT_ONLY="$REPORT_ONLY" \
    PYTHONPATH=src python -m pytest benchmarks/test_large_graph.py -q -s

echo "== bench history (append BENCH_*.json, trend, regression check) =="
# Appends the kernel/serving artifacts written above to benchmarks/history/
# and checks the newest entry against the rolling median of prior entries
# from the same host.  Report-only on PRs: a regression prints but passes.
PYTHONPATH=src python -m repro bench record
PYTHONPATH=src python -m repro bench trend
if [[ "$REPORT_ONLY" == "1" ]]; then
    PYTHONPATH=src python -m repro bench check --report-only
else
    PYTHONPATH=src python -m repro bench check
fi

echo "== parallel smoke (jobs=2 table runs bit-identical to serial) =="
PYTHONPATH=src python -m pytest tests/parallel -q
REPRO_PERF_REPORT_ONLY="$REPORT_ONLY" \
    PYTHONPATH=src python -m pytest benchmarks/test_parallel_tables.py -q -s

echo "== resume equivalence (kill at 15, resume, bit-identical weights) =="
PYTHONPATH=src python -m pytest tests/engine/test_resume.py -q

echo "== telemetry sample run (runs/<id>/, schema-validated) =="
python scripts/runs_demo.py runs

echo "== spec smoke (2-cell toy spec via 'repro run --jobs 2', merged telemetry) =="
python scripts/spec_smoke.py specruns

echo "== ci.sh: all stages passed =="
