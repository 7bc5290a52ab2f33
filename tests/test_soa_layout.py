"""The SoA lane layout is declared once, in ``_soa_native.LANE``.

The C side (enums, ``SoaCtx``, the unpacking in ``soa_advance``) is
generated from that table and ``LaneState`` allocates from it, so these
tests check the two against an independent oracle: every buffer a lane
hands the compiled driver has the dtype of the C element type the
driver reads through and the length its size rule promises, on every
strategy the driver implements and on both topologies.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.alloc.mbs import cover_with_squares
from repro.alloc.soa_state import ALLOC_KINDS, SCHED_KINDS, LaneState
from repro.core import _soa_native as native
from repro.core.config import SimConfig
from repro.experiments.campaign import PointSpec, Scale, build_simulator

#: a C element type's bytes as NumPy reads them, from ctypes alone
C_DTYPES = {
    "double": np.dtype(ctypes.c_double),
    "int64_t": np.dtype(ctypes.c_int64),
    "uint8_t": np.dtype(ctypes.c_uint8),
    "uint64_t": np.dtype(ctypes.c_uint64),
}

#: non-square, non-power-of-two: several MBS cover roots
CONFIG = SimConfig(width=6, length=10, jobs=40, seed=3, scheduler_window=3)
SCALE = Scale("tiny", jobs=40, min_replications=1, max_replications=1,
              trace_max_jobs=200)


def make_lane(alloc: str, topology: str, sched: str = "FCFS") -> LaneState:
    spec = PointSpec(workload="uniform", load=0.7, alloc=alloc, sched=sched,
                     scale=SCALE, config=CONFIG.with_(topology=topology))
    probe = build_simulator(spec, 5)
    return LaneState(probe.config, probe.workload, 5, ALLOC_KINDS[alloc],
                     SCHED_KINDS[sched])


def expected_lengths(config: SimConfig, alloc: str, cap: int) -> dict:
    W, L = config.width, config.length
    cells = W * L
    roots = cover_with_squares(W, L) if alloc == "MBS" else []
    levels = max(k for k, _, _ in roots) + 1 if roots else 0
    return {
        "F": len(native.F_SLOTS),
        "I": len(native.I_SLOTS),
        "jobs": cap,
        "cells": cells,
        "channels": 6 * cells,
        "xy": 2 * cells,
        "heap": cells + 8,
        "length": L,
        "messages": config.max_messages,
        "window": config.scheduler_window,
        "nodes": 2 * cells + 64 if roots else 0,
        "arena": sum((cells >> (2 * k)) + 8 for k in range(levels)),
        "levels": levels,
        "offsets": levels + 1,
        "roots": len(roots),
    }


def assert_buffers_match_table(lane: LaneState, alloc: str) -> None:
    want = expected_lengths(lane.config, alloc, lane.cap)
    assert len(lane.ptable) == native.P_COUNT == len(native.LANE)
    for slot, entry in enumerate(native.LANE):
        buf = getattr(lane, entry.field)
        ctype = entry.ctype.removeprefix("const ")
        assert buf.dtype == C_DTYPES[ctype], entry
        assert buf.shape == (want[entry.size],), entry
        assert buf.flags.c_contiguous, entry
        assert getattr(native, f"P_{entry.field.upper()}") == slot
        assert lane.ptable[slot] == buf.ctypes.data, entry


@pytest.mark.parametrize("topology", ["mesh", "torus"])
@pytest.mark.parametrize("alloc", ["GABL", "Paging(0)", "MBS"])
def test_lane_buffers_match_the_table(alloc, topology):
    lane = make_lane(alloc, topology)
    assert_buffers_match_table(lane, alloc)
    assert lane.CI[native.CI_MAGIC] == native.LAYOUT_MAGIC
    assert lane.CI[native.CI_WRAP] == (topology == "torus")
    assert lane.CI[native.CI_ALLOC_KIND] == ALLOC_KINDS[alloc]
    assert lane.CI.shape == (native.CI_COUNT,)
    assert lane.CF.shape == (native.CF_COUNT,)
    assert (lane.owner == -1).all()
    assert lane.I[native.I_FREE] == CONFIG.width * CONFIG.length


def test_growth_doubles_only_the_job_arrays():
    lane = make_lane("MBS", "mesh", sched="SSD")
    lane.feed()
    n = lane.n_provided
    arrivals = lane.arr[:n].copy()
    cap = lane.cap
    lane._grow()
    assert lane.cap == 2 * cap
    assert_buffers_match_table(lane, "MBS")
    np.testing.assert_array_equal(lane.arr[:n], arrivals)


def test_mbs_roots_and_arena_offsets_are_filled():
    lane = make_lane("MBS", "mesh")
    roots = cover_with_squares(CONFIG.width, CONFIG.length)
    assert list(zip(lane.rk, lane.rx, lane.ry)) == roots
    assert lane.CI[native.CI_N_ROOTS] == len(roots)
    offsets = lane.mhoff.tolist()
    assert offsets[0] == 0 and offsets[-1] == len(lane.mhe)
    assert offsets == sorted(offsets)


def test_generated_c_declares_every_slot():
    """Each table entry is one ``SoaCtx`` member of its declared C type
    and one unpacking line; each scalar slot is one enum constant."""
    source = native._SOURCE
    for entry in native.LANE:
        assert f"    {entry.ctype} *{entry.field};" in source
        assert (f"c->{entry.field} = ({entry.ctype} *)"
                f"P[P_{entry.field.upper()}];") in source
    for name in native.CI_PARAMS:
        assert f"    int64_t {name};" in source
        assert f"c->{name} = CI[CI_{name.upper()}];" in source
    for name in native.CF_PARAMS:
        assert f"    double {name};" in source
        assert f"c->{name} = CF[CF_{name.upper()}];" in source
    for prefix, names in (("F", native.F_SLOTS), ("I", native.I_SLOTS)):
        enum = ", ".join(f"{prefix}_{n.upper()}" for n in names)
        assert f"enum {{ {enum}, {prefix}_COUNT }};" in source
    assert f"#define LAYOUT_MAGIC {native.LAYOUT_MAGIC}\n" in source
