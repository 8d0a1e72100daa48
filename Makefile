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

examples:
	for e in examples/*.py; do echo "== $$e"; python $$e > /dev/null && echo ok; done

all: test bench report
