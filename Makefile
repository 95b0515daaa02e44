# Convenience targets for the EBL reproduction.

.PHONY: install test lint lint-baseline perfbench-smoke bench-micro report figures nam sweep campaign-smoke campaign-bench trace-smoke fuzz-smoke sanitize clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# Determinism/scheduling static analysis (simlint) always runs whole-
# program over src/tests/examples, gating on findings not recorded in
# .simlint-baseline.json; ruff and mypy run when installed
# (pip install -e .[lint]) and are skipped quietly in minimal
# environments so `make lint` works everywhere.
lint:
	PYTHONPATH=src python -m repro.lint --jobs 4
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests; \
	else echo "ruff not installed; skipping (pip install -e .[lint])"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
	else echo "mypy not installed; skipping (pip install -e .[lint])"; fi

# Regenerate the checked-in baseline from the current findings.  Only run
# this to *shrink* the file (after fixing or deleting baselined code) —
# review the diff; new entries mean a new violation is being grandfathered.
lint-baseline:
	PYTHONPATH=src python -m repro.lint --write-baseline

# Proves the benchmark (perfbench/, see docs/PERFORMANCE.md) still runs
# against src/: its own tests, then a short untraced and a short traced
# pass.  run.py exits 0 even when trials fail, so each pass's result line
# is checked for correct trials and, on the traced pass, full layer
# coverage and live instrumentation sinks.  Host times are not gated.
perfbench-smoke:
	python -m pytest -q perfbench/tests
	python3 perfbench/run.py --seconds 2 | python3 tools/check_perfbench.py
	python3 perfbench/run.py --traced --seconds 2 | python3 tools/check_perfbench.py

# The pytest-benchmark reproduction suite: one bench per paper figure or
# table (plus the extension studies), each asserting the reproduced result.
bench-micro:
	pytest benchmarks/ --benchmark-only

report:
	ebl-sim report --duration 40 --output report.md

figures:
	ebl-sim figures --trial 1 --output-dir figures
	ebl-sim figures --trial 2 --output-dir figures
	ebl-sim figures --trial 3 --output-dir figures

nam:
	ebl-sim nam --trial 1 --output out.nam

sweep:
	ebl-sim sweep packet-size
	ebl-sim sweep tdma-slots

# Fast end-to-end exercise of the crash-tolerant campaign runner on the
# parallel worker pool (--jobs 2): two short fault-injected trials plus
# a deliberately crashing and a deliberately hanging one — watchdog
# kills and structured failures must behave under concurrency.
campaign-smoke:
	PYTHONPATH=src python -m repro.cli campaign --trial 3 --seeds 2 \
		--duration 3 --timeout 10 --fault-plan light --jobs 2 \
		--inject-crash --inject-hang \
		--checkpoint .campaign-smoke.jsonl
	rm -f .campaign-smoke.jsonl

# Worker-pool scaling gate: the same 8-seed campaign at jobs=1 and
# jobs=4, gating on bit-identical per-trial records and, with 2+
# hardware threads, on a >1.2x wall-clock speedup in up to 5 attempts
# (see docs/PERFORMANCE.md, "Campaign scaling").
campaign-bench:
	PYTHONPATH=src python -m repro.perf.campaign_scaling --trial 3 \
		--seeds 8 --jobs 4 --duration 3

# Record a short traced trial, print the causal chain for the initial
# EBL warning, and export a Perfetto trace (see docs/OBSERVABILITY.md,
# "Causal tracing").  Open TRACE_smoke.perfetto.json at
# https://ui.perfetto.dev.
trace-smoke:
	PYTHONPATH=src python -m repro.cli trace --trial 1 --duration 15 \
		--uid initial-warning \
		--perfetto TRACE_smoke.perfetto.json

# Sanitized fuzzing over ~25 seed-derived scenarios (see
# docs/ROBUSTNESS.md).  Fixed seed, so a CI failure reproduces locally
# with the same command; failing configs are shrunk and saved next to
# the JSON report as ready-to-run repro files.
fuzz-smoke:
	PYTHONPATH=src python -m repro.cli fuzz --seed 1 --count 25 \
		--timeout 60 --output FUZZ_report.json \
		--save-failing fuzz-failures

# Run the three paper trials under the full runtime sanitizer.
sanitize:
	PYTHONPATH=src python -m repro.cli sanitize --trial all --duration 30

clean:
	rm -rf figures out.nam report.md .pytest_cache .benchmarks
	rm -rf FUZZ_report.json fuzz-failures
	rm -f TRACE_smoke.perfetto.json
	find . -name __pycache__ -type d -exec rm -rf {} +
