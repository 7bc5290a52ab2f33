"""The channel sampler's draw order, and channel-spec validation and
canonicalisation.

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
from hypothesis import given, settings, strategies as st

from repro.core.config import TIME_GRID, SimConfig
from repro.experiments.campaign import PointSpec, Scale, run_spec_replication
from repro.network.channel import (
    CHANNEL_STREAM,
    FATE_BLOCK,
    ChannelPolicy,
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


def _finite(min_value=0.0, **kw):
    return st.floats(min_value=min_value, max_value=1e300, allow_nan=False,
                     allow_infinity=False, **kw)


probabilities = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
delays = st.one_of(
    st.just(()),
    st.tuples(st.just("fixed"), _finite()),
    st.tuples(st.just("exp"), _finite(exclude_min=True)),
    st.tuples(_finite(), _finite()).map(
        lambda pair: ("uniform", min(pair), max(pair))
    ),
)
policies = st.builds(ChannelPolicy, loss=probabilities,
                     corrupt=probabilities, delay=delays)


@given(policy=policies)
@settings(max_examples=300, deadline=None)
def test_spec_round_trips_exactly(policy):
    """The canonical spec parses back to the very same policy (every
    trivial policy to the trivial one), and canonicalising is idempotent."""
    spec = policy.spec()
    assert "e+" not in spec
    assert parse_channel(spec) == (ChannelPolicy() if policy.trivial else policy)
    assert canonical_channel(spec) == spec


@pytest.mark.parametrize("spec", [
    "loss:0.08", "loss:0.2", "loss:0", "delay:exp:2", "delay:fixed:1",
    "loss:0.1+delay:exp:2", "corrupt:0.1+delay:fixed:1",
    "corrupt:0.1+delay:uniform:0.5:3", "loss:0.05+delay:exp:0.1",
])
def test_existing_canonical_specs_are_unchanged(spec):
    assert canonical_channel(spec) == spec


def test_close_probabilities_keep_distinct_specs():
    """``:g`` keeps six digits: ``0.1234567`` used to run as ``0.123457``
    and share its cache key with ``0.1234568``."""
    a = SimConfig(channel="loss:0.1234567", arq="selective-repeat")
    b = SimConfig(channel="loss:0.1234568", arq="selective-repeat")
    assert a.channel == "loss:0.1234567"
    assert a.channel != b.channel
    assert parse_channel(a.channel).loss == 0.1234567


def test_large_fixed_delay_survives_the_config_and_runs():
    """``2000000`` used to canonicalise to ``2e+06``, whose ``+`` split
    the term: the run then failed on ``delay:fixed:2e``."""
    config = SimConfig(width=4, length=4, jobs=6, seed=1,
                       channel="delay:fixed:2000000", arq="selective-repeat")
    assert config.channel == "delay:fixed:2e6"
    assert parse_channel(config.channel).delay == ("fixed", 2e6)
    spec = PointSpec(
        workload="uniform", load=0.02, alloc="GABL", sched="FCFS",
        scale=Scale("tiny", jobs=6, min_replications=1, max_replications=1,
                    trace_max_jobs=50),
        config=config,
    )
    assert run_spec_replication(spec, 1)["mean_packet_latency"] > 2e6
