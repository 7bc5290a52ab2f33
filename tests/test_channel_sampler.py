"""The channel sampler's draw order, and channel-spec validation.

:class:`~repro.network.channel.ChannelSampler` may take its fates from
a block of ``FATE_BLOCK`` uniforms drawn at once when no delay draw
interleaves with them.  Whichever path it takes, every fate and every
delay must equal an oracle that draws one value at a time from a fresh
``default_rng((CHANNEL_STREAM, seed))`` in the documented order: one
uniform per attempt (when the failure rate is positive), then one delay
draw per surviving attempt (for ``exp`` and ``uniform`` delays).
"""

import numpy as np
import pytest

from repro.core.config import TIME_GRID
from repro.network.channel import (
    CHANNEL_STREAM,
    FATE_BLOCK,
    ChannelSampler,
    canonical_channel,
    parse_channel,
)

#: enough attempts to cross several block refills
ATTEMPTS = 3 * FATE_BLOCK + 17

FAILURES = ["loss:0.2", "corrupt:0.1", "loss:0.1+corrupt:0.15"]
DELAYS = ["", "delay:fixed:1.5", "delay:exp:2", "delay:uniform:0.5:3"]


def oracle(spec: str, seed: int, attempts: int) -> list:
    """(fate, delay) per attempt, drawn one by one in the contract order."""
    policy = parse_channel(spec)
    rng = np.random.default_rng((CHANNEL_STREAM, seed))
    failure = policy.failure_rate
    out = []
    for _ in range(attempts):
        ok = failure == 0.0 or rng.random() >= failure
        d = None
        if ok:
            kind = policy.delay[0] if policy.delay else None
            if kind is None:
                d = 0.0
            elif kind == "fixed":
                d = policy.delay[1]
            elif kind == "exp":
                d = rng.exponential(policy.delay[1])
            else:
                d = rng.uniform(policy.delay[1], policy.delay[2])
            d = round(d * TIME_GRID) / TIME_GRID
        out.append((ok, d))
    return out


def sampled(spec: str, seed: int, attempts: int) -> list:
    """The same sequence through the sampler, as the resolver calls it."""
    sampler = ChannelSampler(parse_channel(spec), seed)
    out = []
    for _ in range(attempts):
        ok = sampler.fate()
        out.append((ok, sampler.delay() if ok else None))
    return out


@pytest.mark.parametrize("delay", DELAYS, ids=lambda d: d or "no-delay")
@pytest.mark.parametrize("failure", FAILURES)
def test_fates_and_delays_match_one_by_one_draws(failure, delay):
    spec = "+".join(t for t in (failure, delay) if t)
    for seed in (0, 2026):
        got = sampled(spec, seed, ATTEMPTS)
        assert got == oracle(spec, seed, ATTEMPTS), (spec, seed)
        fails = sum(1 for ok, _ in got if not ok)
        assert 0 < fails < ATTEMPTS


@pytest.mark.parametrize("spec", ["delay:exp:2", "delay:uniform:0.5:3"])
def test_delay_only_policy_draws_no_fates(spec):
    assert sampled(spec, 7, ATTEMPTS) == oracle(spec, 7, ATTEMPTS)


NON_FINITE_DELAYS = [
    "delay:fixed:inf",
    "delay:fixed:nan",
    "delay:exp:inf",
    "delay:exp:nan",
    "delay:uniform:0:inf",
    "delay:uniform:nan:1",
    "loss:0.1+delay:exp:-inf",
]


@pytest.mark.parametrize("spec", NON_FINITE_DELAYS)
def test_non_finite_delay_rejected_at_parse_time(spec):
    with pytest.raises(ValueError, match="finite"):
        parse_channel(spec)
    with pytest.raises(ValueError, match="finite"):
        canonical_channel(spec)
