"""CLI reports, pinned byte for byte.

Each argv runs in-process through dispatch, from the repository root;
its exit code and the sha256 of its stdout must equal the pin. A change
that means to move a report updates its pin and says which report moved
and why.
"""

import hashlib
import shlex
from pathlib import Path

import pytest

from locbound.cli import dispatch

ROOT = Path(__file__).resolve().parents[1]

# argv -> (exit code, sha256 of stdout); CHANGES.md names every pin a change moved
_PINS = {
    "verify overhead":
        (0, "b52d0f325c72485a8554b141c7348193fa3820318aca76b0d8bf0ba2bd207212"),
    "verify overhead --c2 2":
        (0, "5016b071927208a26cfc26895b2d88cc06f26747e3fd328adabad6a57bcc627b"),
    "verify depth-bound":
        (0, "8dfe2786ed4b29a9ce6db3803aab9214d629a6e8d0723f19004a369fa2caa733"),
    "verify sie":
        (0, "2b55cb50edf86098121df5ce7a3506fae7da916f5255f792ab0eb7647dbf6ee2"),
    'verify structure-code --code data/five_qubit.code --partition "0,1;2,3;4"':
        (0, "552601133bea340ab2f6042af4ce120445fa052fc995751cb50c0029ac0b0de6"),
    "bound overhead --m 100 --k 10 --p 0.25 --delta 0.00390625 --depth 1 --dim 2":
        (0, "0ac72a2c5b2e86fb871c28e3fabc592d06dccfdfa3325ff59b0cb62b8544f161"),
    "code check --file data/five_qubit.code":
        (0, "6375d6cc6f1121feefe842a1c23ff882f12e5800b74408384472f8c6c1027373"),
    "code encode --file data/four_two_two.code --full":
        (0, "77ff5282fb23a41385e7a534e04dd0d273a3fc0e096d542d64a7acae34da4a5c"),
    "verify corr-max --code data/four_two_two.code --states 4":
        (0, "0526ab1eff599fef926bc7f47b13f8e9125cdc994b344d9f58a2652d5dc479e7"),
    "ree --code data/four_two_two.code --region 0":
        (0, "8f084684083deea168a977801b24d4ea5e7c7e21df96f3610a2aa52465b6dc1e"),
    "ree --code data/five_qubit.code --region 0,1 --restarts 2 --iterations 10":
        (0, "77d7da59d3da92a1817669a9263650840da7997589b51d2d807aeb302e4596de"),
}


@pytest.mark.parametrize("argv", list(_PINS))
def test_report_is_pinned(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = dispatch(shlex.split(argv))
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == _PINS[argv], f"exit {code}, report:\n{out}"
