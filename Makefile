# Convenience targets for the reproduction repository.

.PHONY: install test bench perfbench digest tables trace-report api all \
	bounds-check dashboard wire-check obs-commit obs-diff obs-fsck \
	obs-watch slo-check memory-check serve

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src pytest tests/

bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only

# Two-second run of each benchmark workload; fails on a failed output check.
perfbench:
	for workload in games mincut serve_read serve_mixed; do \
		python3 perfbench/run.py --workload $$workload --seed 1 --seconds 2 || exit 1; \
	done

# sha256 of run_all's stdout (E1-E10); CI's digest-parity job compares it
# between the base commit and the change.
digest:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	PYTHONPATH=src python -m repro.experiments.run_all --no-telemetry > "$$out" && \
	sha256sum < "$$out" | cut -d' ' -f1

serve:
	PYTHONPATH=src python -m repro.serving.server --port 0 \
		--metrics-port 0 --slo

tables:
	PYTHONPATH=src python -m repro.experiments.run_all

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
	PYTHONPATH=src python scripts/gen_api_reference.py

all: test bench
