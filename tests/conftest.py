"""Suite-wide test tooling: ``--shuffle SEED`` runs the collected tests
in an order drawn from ``SEED`` (``random`` draws the seed itself).

The seed is printed before the first test and again in the summary,
so a failure that only one order shows can be replayed with the same
``--shuffle`` value.  Without the option the order is pytest's own.
"""

import random

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--shuffle",
        metavar="SEED",
        default=None,
        help="run the tests in an order drawn from SEED ('random' draws one)",
    )


def _seed(config):
    seed = config.getoption("--shuffle")
    if seed == "random":
        seed = config._shuffle_seed = getattr(
            config, "_shuffle_seed", str(random.SystemRandom().randrange(2**32))
        )
    return seed


def _say(config, text):
    reporter = config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(text)


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(config, items):
    seed = _seed(config)
    if seed is None:
        return
    random.Random(seed).shuffle(items)
    _say(config, f"shuffled {len(items)} tests with --shuffle {seed}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seed = _seed(config)
    if seed is not None:
        terminalreporter.write_line(f"test order: --shuffle {seed}")
