.PHONY: install lint lint-invariants lint-changed typecheck test bench bench-smoke bench-full bench-scale perf-gate serve-load report report-full examples clean

install:
	pip install -e . --no-build-isolation

lint:
	ruff check .

# Repo-specific invariant + AST linter (rules R1-R13; see
# docs/ANALYSIS.md).  The baseline file is the ratchet: it only ever
# shrinks.  The content-hash cache makes warm runs re-analyze only the
# files you actually touched.
lint-invariants:
	PYTHONPATH=src python -m repro lint src \
		--baseline analysis_baseline.json \
		--cache .repro-lint-cache.json --jobs 4

# Lint only the python files changed vs BASE (default origin/main if it
# exists, else HEAD) plus untracked ones — the fast inner-loop target.
BASE ?= $(shell git rev-parse --verify -q origin/main >/dev/null 2>&1 && echo origin/main || echo HEAD)
lint-changed:
	PYTHONPATH=src python -m repro lint src \
		--baseline analysis_baseline.json \
		--cache .repro-lint-cache.json --changed $(BASE)

# Strict zone only; the gradually-typed packages are relaxed via the
# [[tool.mypy.overrides]] tables in pyproject.toml.  Skips cleanly when
# mypy is not installed (it is an optional dev dependency).
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --strict src/repro/core src/repro/lsh src/repro/structures \
			src/repro/distance src/repro/obs src/repro/parallel \
			src/repro/online src/repro/serve; \
	else \
		echo "mypy not installed (pip install -e '.[dev]'); skipping"; \
	fi

# Matches the tier-1 CI command exactly, so local runs and CI agree.
test:
	PYTHONPATH=src python -m pytest -x -q

bench:
	pytest benchmarks/ --benchmark-only

# Fast subset used by the CI smoke job (no REPRO_FULL).  Also emits
# BENCH_parallel.json: serial-vs-parallel timings of a pairwise-heavy
# scenario plus the host cpu_count (speedup is only meaningful on
# multi-core machines) and an identical-output check;
# BENCH_serve.json: cold-vs-warm-start timings proving a snapshot
# restore skips prepare() and stays bit-identical;
# BENCH_memo.json: pairs_compared with the pair-verdict memo off vs on
# over a streaming insert+query scenario (identical outputs, >=30%
# fewer comparisons); and BENCH_topk.json: end-to-end top-k wall time
# plus deterministic work counters on fixed-seed synthetics.
bench-smoke:
	pytest benchmarks/bench_fig05_probability.py benchmarks/bench_fig08_cora.py \
		--benchmark-only -q --benchmark-json=bench-smoke.json
	python benchmarks/parallel_smoke.py --out BENCH_parallel.json
	python benchmarks/serve_smoke.py --out BENCH_serve.json
	python benchmarks/bench_memo.py --out BENCH_memo.json
	python benchmarks/bench_binning.py --out BENCH_binning.json
	python benchmarks/bench_topk_macro.py --out BENCH_topk.json

bench-full:
	REPRO_FULL=1 pytest benchmarks/ --benchmark-only

# Out-of-core scale run: streaming-build a Cora layout on disk, resolve
# top-k across 4 shards over the mmap open, and gate on (a) cross-shard
# bit-identity vs the single-shard in-memory path on a shard-aligned
# planted store, (b) zero store-pickle bytes shipped to process
# workers, and (c) an optional peak-RSS ceiling.  Writes
# BENCH_scale.json; the nightly scale-smoke job runs this at 500k
# records with an RSS ceiling (see .github/workflows/nightly.yml).
bench-scale:
	PYTHONPATH=src python benchmarks/bench_scale.py --out BENCH_scale.json

# Deterministic perf gate: the macro benchmark's pairs_compared /
# hashes_computed counters must not exceed perf_baseline.json (the
# ratchet — improvements re-run with --write-baseline and commit the
# smaller numbers).  Timing is reported but never gated.
perf-gate:
	PYTHONPATH=src python benchmarks/bench_topk_macro.py \
		--out BENCH_topk.json --check-baseline perf_baseline.json

# Smoke-scale open-loop load run against a 2-shard service, writing
# BENCH_serve_load.json (p50/p95/p99 latency, throughput, shed rate).
# The exit code gates on shed rate, error rate, and response
# bit-identity vs the in-process ShardOracle — never on wall-clock
# latency (see docs/SERVING.md).
serve-load:
	PYTHONPATH=src python -m repro loadtest --generate spotsigs \
		--records 400 --qps 25 --duration 20 -k 2 5 10 \
		--reserve 60 --write-fraction 0.05 --rollover-records 32 \
		--shards 2 --out BENCH_serve_load.json

report:
	python -m repro report --out EXPERIMENTS_GENERATED.md

report-full:
	python -m repro --full report --out EXPERIMENTS_GENERATED.md

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		python $$script || exit 1; \
	done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
