# Convenience targets for the reproduction repository.

.PHONY: install test bench bench-report bench-parallel bench-kernels \
	bench-live bench-memory bench-serving perfbench tables trace-report api all \
	bounds-check dashboard wire-check obs-commit obs-diff obs-fsck \
	obs-watch slo-check memory-check serve

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-report:
	PYTHONPATH=src python scripts/bench_report.py

bench-parallel:
	PYTHONPATH=src python scripts/bench_report.py --pr5-only

bench-kernels:
	PYTHONPATH=src python scripts/bench_report.py --pr6-only

bench-live:
	PYTHONPATH=src python scripts/bench_report.py --pr8-only

bench-memory:
	PYTHONPATH=src python scripts/bench_report.py --pr9-only

bench-serving:
	PYTHONPATH=src python scripts/cut_bench.py

# Two-second run of each benchmark workload; fails on a failed output check.
perfbench:
	for workload in games mincut serve_read serve_mixed; do \
		python3 perfbench/run.py --workload $$workload --seed 1 --seconds 2 || exit 1; \
	done

serve:
	PYTHONPATH=src python -m repro.serving.server --port 0 \
		--metrics-port 0 --slo

tables:
	python -m repro.experiments.run_all

trace-report:
	PYTHONPATH=src python scripts/trace_report.py telemetry.jsonl

bounds-check:
	PYTHONPATH=src python -m repro.experiments.run_all --strict-bounds

wire-check:
	PYTHONPATH=src python scripts/wire_replay.py record foreach --seed 7 \
		--out wire-check.capture.jsonl
	PYTHONPATH=src python scripts/wire_replay.py verify wire-check.capture.jsonl
	rm -f wire-check.capture.jsonl

dashboard:
	PYTHONPATH=src python scripts/obs_db.py ingest --telemetry telemetry.jsonl
	PYTHONPATH=src python scripts/obs_dashboard.py

obs-commit:
	PYTHONPATH=src python -m repro.experiments.run_all \
		--telemetry telemetry.jsonl --capture-wire --commit-run

obs-diff:
	PYTHONPATH=src python scripts/obs_store.py diff HEAD~1 HEAD

obs-fsck:
	PYTHONPATH=src python scripts/obs_store.py fsck

obs-watch:
	PYTHONPATH=src python scripts/obs_watch.py --follow live.jsonl

slo-check:
	PYTHONPATH=src python -m repro.experiments.run_all --slo \
		--telemetry telemetry.jsonl

memory-check:
	PYTHONPATH=src python -m repro.experiments.run_all --memory \
		--strict-bounds --telemetry telemetry.jsonl

api:
	python scripts/gen_api_reference.py

all: test bench
