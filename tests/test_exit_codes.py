"""The exit-code contract, fuzzed through in-process `cli.main`.

Each example sets one or two numeric keys of configs/paper_device.toml to an
edge value (zero, subnormal, tiny, negative, huge, and -inf on dB keys) and
switches about 30% of the configs to Stokes pumping.  Whatever the config,
a verb exits 0, 1, 2 or 3 and raises nothing; an exit of 0 writes finite
numbers only, and its JSON is strict.  Runs stay short: at most 7 grid
and power points, a pulse window of a few nanoseconds and a lowered step
cap."""

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from moptrans import timedomain
from moptrans.cli import main
from moptrans.config import parse_flat_toml

from test_cli import write_config

PAPER = (Path(__file__).resolve().parents[1] / "configs" / "paper_device.toml").read_text()
# the paper device with short runs; 7 grid and power points at most
BASE = {**parse_flat_toml(PAPER), "grid_points": 7, "power_points": 7,
        "lockin_tau_s": 1.0e-9, "sim_duration_s": 2.0e-9}
KEYS = sorted(k for k, v in BASE.items() if isinstance(v, (int, float)) and not isinstance(v, bool))
COUNTS = ("grid_points", "power_points")
VALUES = (0.0, 5e-324, 1e-300, 1e-12, -1.0, 2.0, 1e12, 1e300, -1e300)
MAX_STEPS = 2 ** 12  # the pulse's step cap here: ten times the base window


def _value(key: str, value: float) -> str:
    """The config text of `value` for `key`; counts above 7 are capped."""
    if key in COUNTS and value > 7:
        return "7"
    if key in COUNTS and value == int(value):
        return str(int(value))
    return repr(value)


@st.composite
def configs(draw):
    """The config text of one example."""
    raw = {k: repr(v) if isinstance(v, float) else str(v) for k, v in BASE.items()}
    raw["pump_config"] = '"stokes"' if draw(st.integers(0, 9)) < 3 else '"antistokes"'
    keys = {draw(st.sampled_from(KEYS))}
    if draw(st.booleans()):
        keys.add(draw(st.sampled_from(KEYS)))
    for key in sorted(keys):
        values = VALUES + ((-math.inf,) if key.endswith(("_dbm", "_db")) else ())
        raw[key] = _value(key, draw(st.sampled_from(values)))
    return "".join(f"{k} = {v}\n" for k, v in raw.items())


def _all_finite(node) -> bool:
    if isinstance(node, dict):
        return all(map(_all_finite, node.values()))
    if isinstance(node, list):
        return all(map(_all_finite, node))
    return not isinstance(node, float) or math.isfinite(node)


def _strict_json(text: str):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit_codes")


@pytest.mark.parametrize("verb", ["spectrum", "power-sweep", "budget", "pulse"])
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=configs())
def test_exit_code_contract(workdir, monkeypatch, verb, text):
    monkeypatch.setattr(timedomain, "_MAX_PULSE_STEPS", MAX_STEPS)
    out = workdir / ("out.json" if verb == "budget" else "out.csv")
    out.unlink(missing_ok=True)
    cfg = write_config(workdir, text)
    # numpy's overflow warnings are not part of the contract; under the
    # suite's filterwarnings = error they would escape as exceptions
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        code = main([verb, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 1, 2, 3)
    if code == 0:
        if verb == "budget":
            assert _all_finite(_strict_json(out.read_text()))
        else:
            rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
            assert rows and all(math.isfinite(float(x)) for row in rows for x in row.split(","))
