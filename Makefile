# Convenience targets for the reproduction repository.

.PHONY: install test perfbench digest tables trace-report api all \
	bounds-check wire-check obs-watch slo-check memory-check serve

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src pytest tests/

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

# Every paper table (E1-E10) into the results file EXPERIMENTS.md quotes;
# CI fails when the committed file differs from a fresh run.
tables:
	PYTHONPATH=src python -m repro.experiments.run_all --no-telemetry > docs/results.txt

trace-report:
	PYTHONPATH=src python scripts/trace_report.py telemetry.jsonl

bounds-check:
	PYTHONPATH=src python -m repro.experiments.run_all --strict-bounds

# Record and replay one seeded game of each wire family.
wire-check:
	for family in foreach forall localquery distributed; do \
		PYTHONPATH=src python scripts/wire_replay.py record $$family --seed 7 \
			--out wire-check.capture.jsonl && \
		PYTHONPATH=src python scripts/wire_replay.py verify wire-check.capture.jsonl \
			|| { rm -f wire-check.capture.jsonl; exit 1; }; \
	done; rm -f wire-check.capture.jsonl

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

all: test
