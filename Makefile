# Developer conveniences. Everything is plain pytest underneath.

PYTHON ?= python

.PHONY: install test bench bench-report bench-e2e examples reproduce all clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Prints the paper-table reports while running and refreshes benchmarks/out/.
bench-report:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# The calibrated end-to-end serving benchmark (BENCHMARK.json): all four
# workloads, every metric by name, answers verified.  See benchmarks/e2e/README.md.
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran"

# The readable one-shot paper reproduction tour.
reproduce:
	$(PYTHON) examples/reproduce_paper.py

all: test bench examples

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/out benchmarks/e2e/out
	find . -name __pycache__ -type d -exec rm -rf {} +
