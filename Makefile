# Developer entry points. Everything runs from the repo root with no
# installation: PYTHONPATH=src is injected here.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-smoke perfbench docs-check docs-check-run selftest serve-demo serve-smoke reshard-smoke mutation-smoke faultinject-smoke replicate-smoke remote-smoke family-smoke

test:            ## tier-1 correctness suite (the merge gate)
	$(PYTHON) -m pytest -x -q

bench:           ## benchmarks (write reports to benchmarks/output/)
	$(PYTHON) -m pytest benchmarks -m bench -q

W ?= serve
SEED ?= 1
perfbench:       ## user-path benchmark, plain then traced: make perfbench W=serve SEED=1
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --seconds 20 --trace 0
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --seconds 20 --trace 1

bench-smoke:     ## columnar codec bench at tiny scale (fast regression gate)
	BENCH_COLUMNAR_KEYS=20000 $(PYTHON) -m pytest \
	    benchmarks/test_bench_columnar_scale.py -m bench -q

serve-smoke:     ## boot a UDS listener, replay a tiny stream, assert a verdict
	$(PYTHON) -m pytest tests/test_serve_net.py -q -k smoke

reshard-smoke:   ## reshard N->M->N byte-identity + verdict equivalence gate
	$(PYTHON) -m pytest tests/test_reshard.py -q

faultinject-smoke: ## crash/fault-injection sweep over the columnar write paths
	$(PYTHON) -m pytest tests/test_faultinject.py -q

replicate-smoke: ## one live leader->replica bootstrap/trickle/swap round trip
	$(PYTHON) -m pytest tests/test_replicate.py -q -k smoke

remote-smoke:    ## live 3-host fan-out: v2 protocol + fault sweep + wire-tax gate
	$(PYTHON) -m pytest tests/test_remote_v2.py -q
	$(PYTHON) -m pytest tests/test_faultinject.py -q -k TestRemoteFaultSweep
	BENCH_REMOTE_PROBES=50000 BENCH_REMOTE_KEYS=5000 \
	    BENCH_REMOTE_MAX_WIRE_TAX=1.6 $(PYTHON) -m pytest \
	    benchmarks/test_bench_remote_fanout.py -m bench -q

family-smoke:    ## cascade property/unit tier + coarse-absorption bench
	$(PYTHON) -m pytest tests/test_family_cascade.py -q
	BENCH_FAMILY_EXECS=500 $(PYTHON) -m pytest \
	    benchmarks/test_bench_family_cascade.py -m bench -q

mutation-smoke:  ## delta-log write-throughput bench at tiny scale
	BENCH_MUTATION_KEYS=20000 BENCH_MUTATION_APPENDS=200 $(PYTHON) -m pytest \
	    benchmarks/test_bench_mutation.py -m bench -q

docs-check:      ## markdown cross-links + examples import health
	$(PYTHON) -m repro._util.doccheck

docs-check-run:  ## docs-check, plus actually execute every example
	$(PYTHON) -m repro._util.doccheck --run

selftest:        ## engine equivalence smoke check
	$(PYTHON) -m repro engine selftest

serve-demo:      ## async live-serving demo
	$(PYTHON) -m repro serve --demo
