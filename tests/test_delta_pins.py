"""δ and fidelities of fixed modules, pinned bit for bit.

Each value is compared exactly, by float.hex, so a change to the
simulator that moves any of them by one ulp fails here. A change that
means to move one updates its pin and names the old and the new value.
"""

import pytest

from locbound.circuit import logical_error_rate, module_fidelity
from locbound.stabilizer import five_qubit_code
from locbound.verify import (
    default_depth_bound_scenarios,
    default_module_corpus,
    identity_code_module,
    repetition_module,
)


def _cases() -> dict:
    """id -> a call that returns the pinned value."""
    cases = {}
    for module in default_module_corpus():
        cases[f"corpus-{module.name}-p{module.p}"] = lambda m=module: logical_error_rate(m)
    for rounds in range(1, 6):
        for p in (0.01, 0.05, 0.1, 0.3):
            cases[f"repetition-J{rounds}-p{p}"] = \
                lambda p=p, j=rounds: logical_error_rate(repetition_module(p, j))
    for sc in default_depth_bound_scenarios():
        last = len(sc.module.rounds) - 1
        cases[f"depth-bound-{sc.name}"] = \
            lambda sc=sc: module_fidelity(sc.module, sc.input_state, sc.target)
        cases[f"depth-bound-{sc.name}-erased"] = \
            lambda sc=sc, j=last: module_fidelity(sc.module, sc.input_state, sc.target,
                                                  erased=(sc.gamma, j))
    idle = identity_code_module(five_qubit_code(), 0.1, "five-qubit-idle")
    cases["five-qubit-idle"] = lambda: logical_error_rate(idle)
    cases["five-qubit-idle-erased"] = \
        lambda: 1.0 - module_fidelity(idle, erased=(("0", "3"), 0))
    return cases


# float.hex of each value; CHANGES.md names every pin a change moved
_PINS = {
    "corpus-trivial-1q-p0.5": "0x1.8000000000002p-2",
    "corpus-trivial-1q-p0.25": "0x1.8000000000004p-3",
    "corpus-trivial-1q-p0.1": "0x1.3333333333340p-4",
    "corpus-four-two-two-idle-p0.1": "0x1.12559b3d07c80p-2",
    "corpus-repetition-3q-J2-p0.1": "0x1.49efdc1e2381cp-2",
    "corpus-swap-2q-depth1-p0.25": "0x1.e000000000000p-3",
    "repetition-J1-p0.01": "0x1.94eb930e1eb20p-6",
    "repetition-J1-p0.05": "0x1.e380d9945b6d8p-4",
    "repetition-J1-p0.1": "0x1.c8d3d859c8c9cp-3",
    "repetition-J1-p0.3": "0x1.12d5c52e72da2p-1",
    "repetition-J2-p0.01": "0x1.406aaa6fd38d0p-5",
    "repetition-J2-p0.05": "0x1.6ecdec6197f5cp-3",
    "repetition-J2-p0.1": "0x1.49efdc1e2381cp-2",
    "repetition-J2-p0.3": "0x1.5336aa4233564p-1",
    "repetition-J3-p0.01": "0x1.b345aa39d68f0p-5",
    "repetition-J3-p0.05": "0x1.dc57fd4acd148p-3",
    "repetition-J3-p0.1": "0x1.98132524bb6e2p-2",
    "repetition-J3-p0.3": "0x1.72a44c5c09a4ep-1",
    "repetition-J4-p0.01": "0x1.115f460d07b08p-4",
    "repetition-J4-p0.05": "0x1.1d79ba2d0a602p-2",
    "repetition-J4-p0.1": "0x1.d30b6c93a5b04p-2",
    "repetition-J4-p0.3": "0x1.835987a61d600p-1",
    "repetition-J5-p0.01": "0x1.4777feb3408f0p-4",
    "repetition-J5-p0.05": "0x1.4669a257db9f6p-2",
    "repetition-J5-p0.1": "0x1.0010145675271p-1",
    "repetition-J5-p0.3": "0x1.8d769f9ff5160p-1",
    "depth-bound-trivial-gamma-all": "0x1.3ffffffffffffp-1",
    "depth-bound-trivial-gamma-all-erased": "0x1.ffffffffffffep-3",
    "depth-bound-swap-bell": "0x1.57fffffffffffp-1",
    "depth-bound-swap-bell-erased": "0x1.ffffffffffffep-3",
    "depth-bound-isolated-bell-contrapositive": "0x1.57fffffffffffp-1",
    "depth-bound-isolated-bell-contrapositive-erased": "0x1.ffffffffffffep-3",
    "five-qubit-idle": "0x1.4a8e0c9d9d34cp-2",
    "five-qubit-idle-erased": "0x1.e6810624dd2f2p-1",
}


_CASES = _cases()


def test_every_case_has_a_pin():
    assert sorted(_CASES) == sorted(_PINS)


@pytest.mark.parametrize("case", sorted(_PINS))
def test_value_is_bit_identical_to_its_pin(case):
    assert _CASES[case]().hex() == _PINS[case]
