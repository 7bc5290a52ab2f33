"""Property and unit tests for the workload transform pipeline.

Every transform must preserve the two stream invariants the simulator
and the bit-identical network backends rely on: arrival times are
non-decreasing and live on the dyadic ``TIME_GRID``.  The identity
pipeline must be bit-identical to the raw workload, and every seeded
construct (Thin, Jitter, Merge) must be a pure function of the
replication seed.
"""

from __future__ import annotations

import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TIME_GRID, SimConfig
from repro.workload import (
    SOURCES,
    Burstify,
    Jitter,
    LoadScale,
    Merge,
    ShapeClamp,
    SpecError,
    StochasticWorkload,
    Thin,
    TraceJob,
    TraceWorkload,
    build_pipeline,
    canonical_workload,
    parse_workload_spec,
    spec_is_deterministic,
    spec_to_str,
)

CFG = SimConfig(width=8, length=8, jobs=40, seed=7)
N = 60  # stream prefix length inspected per property


def uniform_wl(load: float = 0.02) -> StochasticWorkload:
    return StochasticWorkload(CFG, load=load, sides="uniform")


def trace_wl() -> TraceWorkload:
    trace = [
        TraceJob(arrival=float(i) * 3.7, size=(i % 16) + 1, runtime=5.0 + i)
        for i in range(40)
    ]
    return TraceWorkload(CFG, trace, load=0.05)


def take(wl, seed: int, n: int = N):
    return list(islice(wl.jobs(seed), n))


def assert_invariants(jobs) -> None:
    arrivals = [j.arrival_time for j in jobs]
    assert all(a <= b for a, b in zip(arrivals, arrivals[1:])), (
        "arrivals must be non-decreasing"
    )
    assert all((a * TIME_GRID).is_integer() for a in arrivals), (
        "arrivals must sit on the dyadic grid"
    )
    assert all(a >= 0 for a in arrivals)


# ------------------------------------------------------------ invariants
TRANSFORM_CASES = [
    pytest.param(lambda wl: LoadScale(wl, 0.37), id="scale-compress"),
    pytest.param(lambda wl: LoadScale(wl, 2.5), id="scale-stretch"),
    pytest.param(lambda wl: Thin(wl, 0.5), id="thin"),
    pytest.param(lambda wl: Jitter(wl, 5.0), id="jitter"),
    pytest.param(lambda wl: Burstify(wl, 16.0), id="burst"),
    pytest.param(lambda wl: ShapeClamp(wl, 3, 3), id="clamp"),
    pytest.param(lambda wl: Merge(wl, uniform_wl(0.01)), id="merge"),
]


@pytest.mark.parametrize("make", TRANSFORM_CASES)
@pytest.mark.parametrize("base", [uniform_wl, trace_wl])
def test_invariants_preserved(make, base):
    jobs = take(make(base()), seed=11)
    assert jobs, "transform emptied the stream prefix"
    assert_invariants(jobs)


@pytest.mark.parametrize("make", TRANSFORM_CASES)
def test_transform_deterministic_under_seed_reuse(make):
    wl1, wl2 = make(uniform_wl()), make(uniform_wl())
    assert take(wl1, seed=3) == take(wl2, seed=3)


@given(
    factor=st.floats(min_value=0.05, max_value=8.0,
                     allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_loadscale_property(factor, seed):
    jobs = take(LoadScale(uniform_wl(), factor), seed, n=30)
    assert_invariants(jobs)


@given(
    sigma=st.floats(min_value=0.0, max_value=50.0,
                    allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_jitter_property(sigma, seed):
    jobs = take(Jitter(uniform_wl(), sigma), seed, n=30)
    assert_invariants(jobs)


@given(
    interval=st.floats(min_value=0.5, max_value=200.0,
                       allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_burstify_property(interval, seed):
    jobs = take(Burstify(uniform_wl(), interval), seed, n=30)
    assert_invariants(jobs)


# -------------------------------------------------------------- identity
def test_identity_pipeline_is_bit_identical():
    """A bare-source pipeline IS the raw workload; scale:1 re-emits a
    bit-identical stream."""
    base = uniform_wl()
    assert build_pipeline("uniform", lambda n: base) is base
    ident = LoadScale(uniform_wl(), 1.0)
    assert take(ident, seed=9, n=120) == take(uniform_wl(), seed=9, n=120)


def test_identity_on_trace_is_bit_identical():
    ident = LoadScale(trace_wl(), 1.0)
    assert take(ident, seed=0) == take(trace_wl(), seed=0)


# ----------------------------------------------------------------- merge
def test_merge_deterministic_under_seed_reuse():
    def make():
        return Merge(uniform_wl(0.01), uniform_wl(0.03), trace_wl())

    for seed in (0, 5, 12345):
        assert take(make(), seed) == take(make(), seed)


def test_merge_decorrelates_streams_and_renumbers():
    merged = Merge(uniform_wl(0.01), uniform_wl(0.01))
    jobs = take(merged, seed=4)
    assert [j.job_id for j in jobs] == list(range(1, len(jobs) + 1))
    # the two streams must not be clones of each other: arrival gaps of
    # stream 1 and 2 interleave rather than duplicating pairwise
    arrivals = [j.arrival_time for j in jobs]
    assert len(set(arrivals)) > len(arrivals) // 2


def test_merge_orders_by_arrival():
    a = TraceWorkload(
        CFG, [TraceJob(arrival=float(t), size=2, runtime=1.0)
              for t in (0, 10, 20)], load=0.1)
    b = TraceWorkload(
        CFG, [TraceJob(arrival=float(t), size=3, runtime=1.0)
              for t in (5, 15, 25)], load=0.1)
    jobs = list(Merge(a, b).jobs(0))
    assert_invariants(jobs)
    assert len(jobs) == 6
    assert [j.width * j.length >= 1 for j in jobs]


def test_merge_requires_two():
    with pytest.raises(ValueError):
        Merge(uniform_wl())


# ------------------------------------------------------------ spec layer
def test_parse_roundtrip_canonical():
    spec = "real*0.5 | thin:0.8 + uniform"
    canon = canonical_workload(spec)
    assert canon == "real | scale:0.5 | thin:0.8 + uniform"
    assert canonical_workload(canon) == canon  # idempotent
    assert spec_to_str(parse_workload_spec(canon)) == canon


def test_bare_source_canonicalises_to_plain_name():
    assert canonical_workload("uniform") == "uniform"
    assert canonical_workload({"source": "real"}) == "real"


def test_dict_ast_equivalent_to_string():
    ast = {
        "merge": [
            {"op": "thin", "args": [0.8],
             "inner": {"op": "scale", "args": [0.5],
                       "inner": {"source": "real"}}},
            {"source": "uniform"},
        ]
    }
    assert canonical_workload(ast) == "real | scale:0.5 | thin:0.8 + uniform"


def test_spec_errors():
    for bad in (
        "bogus | thin:0.5",
        "uniform | nope:1",
        "uniform | thin",          # missing arg
        "uniform | thin:0.5:2",    # extra arg
        "uniform | thin:x",
        "",
        "real * zz",
    ):
        with pytest.raises(SpecError):
            parse_workload_spec(bad)
    with pytest.raises(SpecError):
        parse_workload_spec({"merge": [{"source": "real"}]})  # < 2 terms
    with pytest.raises(SpecError):
        # merge below a transform is outside the grammar
        parse_workload_spec(
            {"op": "thin", "args": [0.5],
             "inner": {"merge": [{"source": "real"}, {"source": "uniform"}]}}
        )


@pytest.mark.parametrize("spec, canonical", [
    ("uniform | jitter:1e16", "uniform | jitter:1e16"),
    ("real*1e20", "real | scale:1e20"),
    ("uniform | burst:1e17", "uniform | burst:1e17"),
    ("real | scale:1.5e300 + uniform", "real | scale:1.5e300 + uniform"),
])
def test_large_exponent_canonicalises_without_plus(spec, canonical):
    """``repr`` writes ``1e+16``; the ``+`` would split the canonical
    string into merge terms, so it is written ``1e16``."""
    assert canonical_workload(spec) == canonical
    assert parse_workload_spec(canonical) == parse_workload_spec(spec)


@pytest.mark.parametrize("spec", [
    "uniform++real", "+uniform", "uniform+", "uniform + + real", "real +",
])
def test_empty_merge_term_rejected(spec):
    with pytest.raises(SpecError, match="empty merge term"):
        parse_workload_spec(spec)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
#: each transform's arguments, over the whole range its check accepts
_ARGS = {
    "scale": st.tuples(_POSITIVE),
    "thin": st.tuples(st.floats(min_value=0.0, max_value=1.0,
                                exclude_min=True)),
    "jitter": st.tuples(st.floats(min_value=0.0, allow_infinity=False)),
    "burst": st.tuples(_POSITIVE),
    "clamp": st.tuples(st.integers(1, 10**9), st.integers(1, 10**9)),
}


@st.composite
def pipeline_terms(draw):
    node = {"source": draw(st.sampled_from(SOURCES))}
    for op in draw(st.lists(st.sampled_from(sorted(_ARGS)), max_size=4)):
        node = {"op": op, "args": list(draw(_ARGS[op])), "inner": node}
    return node


pipeline_asts = st.one_of(
    pipeline_terms(),
    st.builds(lambda terms: {"merge": terms},
              st.lists(pipeline_terms(), min_size=2, max_size=4)),
)


@given(pipeline_asts)
@settings(max_examples=300)
def test_pipeline_ast_round_trips_through_canonical_string(ast):
    text = spec_to_str(ast)
    assert "e+" not in text
    assert parse_workload_spec(text) == ast
    canonical = canonical_workload(ast)
    assert "e+" not in canonical
    assert canonical_workload(canonical) == canonical


@pytest.mark.parametrize("spec", [
    "uniform | scale:nan", "uniform | scale:inf", "uniform | scale:-inf",
    "uniform | jitter:nan", "uniform | jitter:inf",
    "uniform | burst:nan", "uniform | burst:inf",
    "uniform | thin:nan", "uniform*nan", "uniform*inf",
])
def test_non_finite_transform_args_rejected(spec):
    """NaN slips through ``<= 0``-style range checks; every transform
    argument must be finite."""
    with pytest.raises(SpecError):
        parse_workload_spec(spec)


@pytest.mark.parametrize("op", ["scale", "jitter", "burst"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_transform_args_rejected_in_ast(op, value):
    """A dict AST (scenario files, service submissions) is held to the
    same check as the string grammar."""
    with pytest.raises(SpecError, match="finite"):
        parse_workload_spec(
            {"op": op, "args": [value], "inner": {"source": "uniform"}}
        )


def test_spec_determinism_classification():
    assert spec_is_deterministic("real")
    assert spec_is_deterministic("real | scale:0.5 | burst:16 | clamp:4:4")
    assert spec_is_deterministic("real*0.5 + real")
    assert not spec_is_deterministic("real | thin:0.9")
    assert not spec_is_deterministic("real | jitter:2")
    assert not spec_is_deterministic("uniform")
    assert not spec_is_deterministic("real + uniform")


def test_built_pipeline_invariants():
    def source(name):
        return trace_wl() if name == "real" else uniform_wl()

    wl = build_pipeline(
        "real*0.5 | jitter:3 + uniform | thin:0.7 | burst:8", source
    )
    jobs = take(wl, seed=21)
    assert_invariants(jobs)
    assert [j.job_id for j in jobs] == list(range(1, len(jobs) + 1))
