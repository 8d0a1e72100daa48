"""Retry budgets (PR 5 tentpole, part 3).

The token bucket itself, and the stub integration: when the
installation-shared bucket is dry, a timed-out call surfaces its
original failure instead of feeding the retry storm — first attempts are
never throttled."""

import pytest

from repro.resilience import RetryBudget
from repro.schooner import CallTimeout


class TestBucket:
    def test_spend_and_deposit(self):
        b = RetryBudget(capacity=2.0, deposit=0.5, tokens=1.0)
        assert b.try_spend()
        assert b.tokens == 0.0
        assert not b.try_spend()
        assert (b.tokens, b.capacity, b.spent, b.denied) == (0.0, 2.0, 1, 1)

    def test_deposits_cap_at_capacity(self):
        b = RetryBudget(capacity=1.0, deposit=0.4, tokens=0.9)
        b.on_success()
        assert b.tokens == 1.0
        b.on_success()
        assert b.tokens == 1.0


class TestStubIntegration:
    def test_dry_budget_suppresses_retries(self, world):
        world.env.retry_budget = RetryBudget(tokens=0.0)
        world.drop_requests(until_s=world.ctx.line.timeline.now + 1.0)
        with pytest.raises(CallTimeout):
            world.stub(x=1.0)
        # exactly one attempt: the first is free, the retry was denied
        assert sum(1 for t in world.env.traces if t.outcome == "timeout") == 1
        assert world.env.retry_budget.denied == 1
        assert world.env.retry_budget.spent == 0

    def test_funded_budget_pays_for_each_retry(self, world):
        world.env.retry_budget = RetryBudget(tokens=10.0)
        # long enough that all max_attempts requests fall in the window,
        # short enough that the line-error teardown afterwards gets through
        world.drop_requests(until_s=world.ctx.line.timeline.now + 8.5)
        with pytest.raises(CallTimeout):
            world.stub(x=1.0)
        # max_attempts attempts: attempt 1 free + (max_attempts-1) paid
        n = world.env.retry.max_attempts
        assert sum(1 for t in world.env.traces if t.outcome == "timeout") == n
        assert world.env.retry_budget.spent == n - 1
        assert world.env.retry_budget.tokens == 10.0 - (n - 1)

    def test_successes_refill_what_failures_drained(self, world):
        world.env.retry_budget = RetryBudget(tokens=1.0, deposit=0.5)
        assert world.stub(x=1.0)["y"] == 2.0
        assert world.stub(x=2.0)["y"] == 4.0
        assert world.env.retry_budget.tokens == 2.0

    @pytest.mark.parametrize("n", [1, 10, 11, 30])
    def test_skipped_full_deposits_leave_the_tokens_as_every_deposit_would(
        self, world, monkeypatch, n
    ):
        """The stub deposits only while the bucket is below capacity:
        after a spend and ``n`` successes the tokens equal ``n``
        unguarded deposits, bit for bit, and a full bucket is not
        deposited into."""
        deposits = []
        on_success = RetryBudget.on_success

        def counted(self):
            deposits.append(self.tokens)
            on_success(self)

        world.env.retry_budget = budget = RetryBudget()
        unguarded = RetryBudget()
        assert budget.try_spend() and unguarded.try_spend()
        for _ in range(n):
            unguarded.on_success()
        monkeypatch.setattr(RetryBudget, "on_success", counted)
        for i in range(n):
            assert world.stub(x=float(i))["y"] == 2.0 * i
        assert budget.tokens.hex() == unguarded.tokens.hex()
        assert all(tokens < budget.capacity for tokens in deposits)
        assert len(deposits) == min(n, 11)
