PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test serving-slow lint check-schedule check-faults-smoke timeline-smoke campaign-smoke

## check: tier-1 tests (counter fingerprints included) + the serving_slow
## acceptance sweep + static analysis + timeline/campaign smoke runs (what
## CI gates on)
check: test serving-slow lint check-schedule check-faults-smoke timeline-smoke campaign-smoke

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

## campaign-smoke: run the D_2 campaign end to end and validate the report
## schema (exits nonzero on drift or a failed static cross-check)
campaign-smoke:
	$(PYTHON) -m repro campaign --smoke
