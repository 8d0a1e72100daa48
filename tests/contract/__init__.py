"""The committed contract: what this program answers, held row by row.

The digests, virtual times and counts the program produces are its
contract; the code that produces them is not.  ``golden.py`` generates
every row from fixed seeds through the public entry points, and
``golden.json`` is the committed copy.  ``test_contract.py`` (tier-1)
regenerates the rows and compares them with it.

    PYTHONPATH=src python -m tests.contract --check     # exit 1 if a row moved
    PYTHONPATH=src python -m tests.contract --explain   # every moved field, both values
    PYTHONPATH=src python -m tests.contract --update    # rewrite golden.json

A change that moves the contract on purpose commits the diff of
``golden.json`` that ``--update`` writes, so the reviewer reads which
rows moved and by how much; a change that moves it by accident fails
tier-1.
"""
