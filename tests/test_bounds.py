import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from locbound.bounds import (
    BoundInputs,
    depth_bound_rhs,
    encoding_depth_floor,
    encoding_depth_floor_geometric,
    overhead_floor,
    syndrome_depth_floor,
)
from locbound.entropy import g_slack


def h2(x):
    # independent scalar oracle for the binary entropy
    out = 0.0
    if 0 < x < 1:
        out = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    return out


def g_oracle(x):
    return (1 + x) * h2(x / (1 + x)) if x > 0 else 0.0


def test_encoding_depth_floor():
    assert encoding_depth_floor(0, [3, 4]) == 0.0
    assert abs(encoding_depth_floor(1, [4, 3, 3]) - 1 / 30) < 1e-12
    assert abs(encoding_depth_floor(5, [5]) - 1 / 3) < 1e-12
    assert encoding_depth_floor(1, [0.0]) == math.inf
    # permutation invariance
    rng = np.random.default_rng(0)
    sizes = list(rng.integers(1, 9, size=6))
    a = encoding_depth_floor(3, sizes)
    b = encoding_depth_floor(3, sizes[::-1])
    assert a == b
    with pytest.raises(ValueError):
        encoding_depth_floor(1, [-1])


def test_encoding_depth_floor_geometric():
    assert abs(encoding_depth_floor_geometric(1, 2, 1, 1) - 1 / 3) < 1e-12
    base = encoding_depth_floor_geometric(4, 5, 20, 2)
    assert abs(encoding_depth_floor_geometric(4, 5, 40, 2) - base / 2) < 1e-12
    # k = n, d = sqrt(n) regime at n = 256, D = 2, m = n (lambda = d - 1)
    val = encoding_depth_floor_geometric(256, 16, 256, 2)
    assert abs(val - 15 ** 0.5 / 3) < 1e-12
    # growth in n when d = sqrt(n)
    grown = encoding_depth_floor_geometric(1024, 32, 1024, 2)
    assert grown > val
    with pytest.raises(ValueError):
        encoding_depth_floor_geometric(1, 1, 1, 1)


def test_syndrome_depth_floor():
    assert syndrome_depth_floor(1, 2, 1, 1) == 0.0  # 1/3 clamps to 0
    # floor 5 scenario: choose parameters with encoding floor exactly 5
    val = encoding_depth_floor_geometric(15, 2, 1, 1)
    assert abs(val - 5.0) < 1e-12
    assert abs(syndrome_depth_floor(15, 2, 1, 1) - 4.0) < 1e-12
    floors = [syndrome_depth_floor(k, 10, 30, 2) for k in range(1, 40)]
    assert all(b >= a for a, b in zip(floors, floors[1:]))  # monotone in k


def test_depth_bound_rhs():
    assert depth_bound_rhs(1.0, 0.0, 0.5, 1, 1) == 1.0
    got = depth_bound_rhs(2.0, 0.01 * 0.5 ** 2, 0.5, 2, 2)
    expect = 2.0 - 0.1 * 2 - g_oracle(0.1)
    assert abs(got - expect) < 1e-12
    # delta / p^|Gamma| = 1: rhs = E_R - |Lambda| - g(1) = E_R - |Lambda| - 2
    got = depth_bound_rhs(3.0, 0.5, 0.5, 1, 1)
    assert abs(got - (3.0 - 1.0 - 2.0)) < 1e-12
    # total on its domain, never NaN
    for d, p, gs, ls in ((0.9, 0.1, 4, 3), (0.0, 1.0, 0, 0), (1.0, 0.5, 6, 2)):
        assert not math.isnan(depth_bound_rhs(1.0, d, p, gs, ls))


def test_overhead_floor_pinned():
    inputs = BoundInputs(m=100, k=10, depth=1.0, p=0.25, delta=0.25 ** 4, dim=2)
    report = overhead_floor(inputs)
    assert abs(report.value - 0.0357143) < 1e-7
    assert report.active_branch == "p^(f/8)"
    assert abs(report.intermediates["f"] - 4.0) < 1e-12
    assert abs(report.intermediates["term_partition"] - 2 / 3) < 1e-12
    assert report.satisfiable

    # explicit half-min identity
    f = inputs.f
    term1 = f ** 0.5 / 3
    term2 = 0.25 ** (f / 8) / 7
    assert report.value == 0.5 * min(term1, term2)


def test_overhead_floor_monotone_in_f():
    # the partition branch grows with f; the overall min only inherits the
    # monotonicity while that branch stays active
    p = 0.25
    parts, floors, branches = [], [], []
    for f in np.linspace(1, 64, 120):
        report = overhead_floor(BoundInputs(m=100, k=1, depth=1.0, p=p, delta=p ** f, dim=2))
        parts.append(report.intermediates["term_partition"])
        floors.append(report.value)
        branches.append(report.active_branch)
    assert all(b >= a - 1e-12 for a, b in zip(parts, parts[1:]))
    for i in range(1, len(floors)):
        if branches[i] == "partition" and branches[i - 1] == "partition":
            assert floors[i] >= floors[i - 1] - 1e-12


def test_overhead_floor_depth_limit():
    inputs = BoundInputs(m=10, k=1, depth=1e9, p=0.25, delta=0.01, dim=2)
    assert overhead_floor(inputs).value < 1e-8
    zero_depth = BoundInputs(m=10, k=1, depth=0.0, p=0.25, delta=0.01, dim=2)
    report = overhead_floor(zero_depth)
    assert math.isinf(report.intermediates["term_partition"])
    assert report.active_branch == "p^(f/8)"
    assert not math.isnan(report.value)


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(m=1, k=2, depth=1.0, p=0.5, delta=0.1, dim=2)
    with pytest.raises(ValueError):
        BoundInputs(m=2, k=1, depth=1.0, p=1.0, delta=0.1, dim=2)  # f undefined
    with pytest.raises(ValueError):
        BoundInputs(m=2, k=1, depth=1.0, p=0.5, delta=1.0, dim=2)
    inputs = BoundInputs(m=2, k=1, depth=1.0, p=0.25, delta=0.25 ** 3, dim=3)
    assert abs(inputs.f - 3.0) < 1e-12


_REFUSALS = {"m": "require 1 <= k <= m", "k": "require 1 <= k <= m",
             "depth": "depth must be >= 0", "dim": "dim must be >= 1",
             "c1": "c1, c2 must be positive", "c2": "c1, c2 must be positive"}


@pytest.mark.parametrize("field", _REFUSALS)
def test_bound_inputs_refuse_nan(field):
    # NaN compares false, so each check is written to fail on it
    fields = dict(m=2, k=1, depth=1.0, p=0.25, delta=0.25 ** 3, dim=2, c1=1.0, c2=1.0)
    with pytest.raises(ValueError, match=_REFUSALS[field]):
        BoundInputs(**{**fields, field: math.nan})


_NAN = math.nan
_NAN_REFUSALS = {
    "floor-k": (encoding_depth_floor, (_NAN, [1.0]), "k must be >= 0, got nan"),
    "floor-sizes": (encoding_depth_floor, (1, [_NAN]), "boundary sizes must be >= 0, got [nan]"),
    "geometric-d": (encoding_depth_floor_geometric, (1, _NAN, 5, 2), "requires d >= 2, got nan"),
    "geometric-m": (encoding_depth_floor_geometric, (1, 3, _NAN, 2),
                    "require m >= 1 and k >= 0, got m=nan, k=1"),
    "geometric-dim": (encoding_depth_floor_geometric, (1, 3, 5, _NAN), "dim must be >= 1, got nan"),
    "geometric-c2": (encoding_depth_floor_geometric, (1, 3, 5, 2, 1.0, _NAN),
                     "c1, c2 must be positive, got c1=1.0, c2=nan"),
    "rhs-ree": (depth_bound_rhs, (_NAN, 0.01, 0.5, 1, 1), "ree_lower_xi must be finite, got nan"),
    "rhs-delta": (depth_bound_rhs, (1.0, _NAN, 0.5, 1, 1), "delta must be >= 0, got nan"),
    "rhs-p": (depth_bound_rhs, (1.0, 0.01, _NAN, 1, 1), "p must lie in (0, 1], got nan"),
    "rhs-gamma": (depth_bound_rhs, (1.0, 0.01, 0.5, _NAN, 1),
                  "gamma_size, lam_size must be >= 0, got nan, 1"),
    "g-slack": (g_slack, (_NAN,), "g argument x must be nonnegative, got nan"),
}


@pytest.mark.parametrize("case", _NAN_REFUSALS)
def test_bound_evaluators_refuse_nan(case):
    # each check is written so that NaN fails it and names the argument,
    # instead of a nan result or an error deep in binary_entropy
    func, args, message = _NAN_REFUSALS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        func(*args)


_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@given(_OPEN_UNIT, _OPEN_UNIT)
def test_valid_inputs_have_positive_f(p, delta):
    # 0 < p, delta < 1 makes ln delta and ln p negative and nonzero, so
    # overhead_floor needs no check of its own on f
    f = BoundInputs(m=2, k=1, depth=1.0, p=p, delta=delta, dim=2).f
    assert 0.0 < f < math.inf


def test_reports_are_reproducible():
    inputs = BoundInputs(m=100, k=10, depth=1.0, p=0.25, delta=0.25 ** 4, dim=2)
    assert overhead_floor(inputs) == overhead_floor(inputs)
