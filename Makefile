# Convenience targets for the NPSS reproduction.

.PHONY: install test bench report examples all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	python -m pytest benchmarks/ --benchmark-only

report:
	python benchmarks/report.py

# every example runs even after one fails; any failure fails the target
examples:
	@status=0; for e in examples/*.py; do \
		echo "== $$e"; \
		if PYTHONPATH=src python $$e > /dev/null; then echo ok; else echo "FAILED: $$e"; status=1; fi; \
	done; exit $$status

all: test bench report
