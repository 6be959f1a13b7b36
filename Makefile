PYTHON ?= python
export PYTHONPATH := src
# Smoke-gate runs land here (gitignored) and are compared against the
# committed BENCH_*smoke.json baselines, which a run never rewrites.
# Refresh a baseline on purpose by copying the run over it.
BENCH_OUT := bench-out

.PHONY: check test serving-slow lint check-schedule check-faults-smoke timeline-smoke bench-smoke bench-faults-smoke bench-replay-smoke bench-serving-smoke bench-campaign-smoke campaign-smoke bench bench-replay bench-serving bench-campaign

## check: tier-1 tests + the serving_slow acceptance sweep + static analysis +
## timeline/bench smoke runs (what CI gates on)
check: test serving-slow lint check-schedule check-faults-smoke timeline-smoke bench-smoke bench-faults-smoke bench-replay-smoke bench-serving-smoke bench-campaign-smoke campaign-smoke

test:
	$(PYTHON) -m pytest -x -q

## serving-slow: the tests tier-1 deselects by marker — the E18
## acceptance sweep (D_3 vs Q_5 vs MC(2,1) saturation knees, ~6 s)
serving-slow:
	$(PYTHON) -m pytest -q -m serving_slow

## lint: repo-wide AST lint (REP001-REP007) over src/, tests/ and
## benchmarks/ — per-path rule profiles relax asserts in tests and
## prints in benchmarks (see repro.analysis.static.lint.RULE_PROFILES)
lint:
	$(PYTHON) -m repro lint src tests benchmarks

## check-schedule: static Theorem 1/2 schedule verification, D_2..D_5
check-schedule:
	$(PYTHON) -m repro check-schedule

## check-faults-smoke: race check of the sharded prefix plans and the
## in-place ascend rounds
check-faults-smoke:
	$(PYTHON) -m repro check-faults --plan

## timeline-smoke: record prefix+sort timelines, validate them against the
## static schedules, and exercise both metrics exporters (exit 1 on divergence)
timeline-smoke:
	$(PYTHON) -m repro timeline --smoke

## bench-smoke: core suite at n<=3 (array backend + engine, traffic, fault
## scenarios), cost counters regression-gated against the committed baseline
## (wide wall factor — only the deterministic counters gate on CI machines)
bench-smoke:
	$(PYTHON) -m repro bench --smoke \
		--out $(BENCH_OUT)/BENCH_smoke.json --compare BENCH_smoke.json \
		--wall-factor 20

## bench-faults-smoke: the fault scenario family alone, gated likewise
bench-faults-smoke:
	$(PYTHON) -m repro bench --faults --smoke \
		--out $(BENCH_OUT)/BENCH_faults_smoke.json --compare BENCH_faults_smoke.json \
		--wall-factor 20

## bench-replay-smoke: the array backend at n<=3, at n=9 (131072 nodes) and
## one sharded row, cost counters regression-gated against the committed
## baseline (wide wall factor — only the counters gate on CI machines)
bench-replay-smoke:
	$(PYTHON) -m repro bench --backend replay --smoke \
		--out $(BENCH_OUT)/BENCH_replay_smoke.json --compare BENCH_replay_smoke.json \
		--wall-factor 20

## bench-serving-smoke: open-loop queueing scenarios at n=2, deterministic
## serving counters regression-gated against the committed baseline (wide
## wall factor — only the counters are meaningful gates on CI machines)
bench-serving-smoke:
	$(PYTHON) -m repro bench --backend serving --smoke \
		--out $(BENCH_OUT)/BENCH_serving_smoke.json --compare BENCH_serving_smoke.json \
		--wall-factor 20

## bench-campaign-smoke: randomized SLO fault campaign at n=2, deterministic
## search fingerprint regression-gated against the committed baseline
bench-campaign-smoke:
	$(PYTHON) -m repro bench --backend campaign --smoke \
		--out $(BENCH_OUT)/BENCH_campaign_smoke.json --compare BENCH_campaign_smoke.json \
		--wall-factor 20

## campaign-smoke: run the D_2 campaign end to end and validate the report
## schema (exits nonzero on drift or a failed static cross-check)
campaign-smoke:
	$(PYTHON) -m repro campaign --smoke

## bench: full sweep, refreshes BENCH_core.json at the repo root
bench:
	$(PYTHON) -m repro bench

## bench-replay: array-backend sweep to D_11 (plus a sharded D_9 row),
## merged into BENCH_core.json
bench-replay:
	$(PYTHON) -m repro bench --backend replay

## bench-serving: full serving scenario sweep, merged into BENCH_core.json
bench-serving:
	$(PYTHON) -m repro bench --backend serving

## bench-campaign: campaign sweep to D_3, merged into BENCH_core.json
bench-campaign:
	$(PYTHON) -m repro bench --backend campaign
