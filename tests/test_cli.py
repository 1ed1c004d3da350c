import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moptrans
from moptrans import calibrate, cli, hybridize
from moptrans.calibrate import _report, doublet_transmission, rc_step_model, s11_model
from moptrans.cli import _read_csv_columns, main
from moptrans.config import _MODE_RE, _SCHEMA, load_config, parse_flat_toml
from moptrans.errors import ConfigError
from moptrans.model import TWO_PI, Configuration

from conftest import OMEGA_1550
from test_calibrate import DOUBLET_KEYS, DOUBLET_TRUTH

PAPER_CONFIG = """
left_freq_hz = 193414489032258.06
left_kappa_int_hz = 130.0e6
left_kappa_ex_hz = 60.0e6
right_freq_hz = 193414489032258.06
right_kappa_int_hz = 94.0e6
right_kappa_ex_hz = 60.0e6
coupling_j_hz = 1.74e9
g0_hz = 42.0
mode1_freq_hz = 3.48e9
mode1_kappa_hz = 13.0e6
mode1_kappa_ex_hz = 1.43e6
mode1_mass_kg = 6.0e-12
probes_db = -3.0
fiber_chip_db = -4.0
pump_config = "antistokes"
pump_power_dbm = 21.0
grid_start_hz = 3.38e9
grid_stop_hz = 3.58e9
grid_points = 201
power_start_dbm = 0.0
power_stop_dbm = 21.0
power_points = 8
pulse_on_s = 1.0e-6
pulse_rep_hz = 100.0e3
lockin_tau_s = 30.0e-9
input_power_dbm = -10.0
temperature_k = 0.8
"""

PAPER_CONFIG_FILE = Path(__file__).resolve().parents[1] / "configs" / "paper_device.toml"

TWO_MODE_EXTRA = """
mode2_freq_hz = 3.165e9
mode2_kappa_hz = 16.0e6
mode2_kappa_ex_hz = 1.6e6
"""


def write_config(tmp_path, text, name="dev.toml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_python(*args):
    """Run a fresh interpreter that imports this source tree."""
    src = str(Path(moptrans.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    return run_python("-m", "moptrans.cli", *argv)


def check_pump_detuning(tmp_path, capsys, verb, name, extra=""):
    """A nonzero pump_detuning_hz is a config error in `verb`; 0.0 gives the
    output of a config without the key (apart from the config hash)."""
    cfg = write_config(tmp_path, PAPER_CONFIG + extra + "pump_detuning_hz = 7.0e6\n")
    out = tmp_path / name
    assert main([verb, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "pump_detuning_hz" in err and "spectrum" in err
    assert not out.exists()
    texts = []
    for line in ("pump_detuning_hz = 0.0\n", ""):
        cfg = write_config(tmp_path, PAPER_CONFIG + extra + line)
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 0
        texts.append(out.read_text().replace(load_config(cfg).sha256, "SHA"))
    assert texts[0] == texts[1]


def write_fit_data(tmp_path, kind):
    """A noisy data file of each `fit` kind (seed 504)."""
    rng = np.random.default_rng(504)
    if kind == "doublet":
        omega = OMEGA_1550 + TWO_PI * np.linspace(-4.0e9, 4.0e9, 300)
        trans = doublet_transmission(omega, *(DOUBLET_TRUTH[k] for k in DOUBLET_KEYS))
        header, columns = "freq_hz,transmission", [omega / TWO_PI, trans + rng.normal(0.0, 0.02, omega.size)]
    elif kind == "s11":
        km = TWO_PI * 3.48e9 / 284
        omega = TWO_PI * 3.48e9 + np.linspace(-8 * km, 8 * km, 500)
        s11 = s11_model(omega, TWO_PI * 3.48e9, km, 0.11 * km) + rng.normal(0.0, 0.01, omega.size)
        header, columns = "freq_hz,re,im", [omega / TWO_PI, s11.real, s11.imag]
    elif kind == "power":
        dbm = np.array([0.0, 7.0, 14.0, 21.0])
        eta = 1e-7 * 10 ** (dbm / 10) * (1.0 + rng.normal(0.0, 0.05, dbm.size))
        header, columns = "power_dbm,eta_tot", [dbm, eta]
    else:
        t = np.linspace(0.0, 0.5e-6, 1200)
        header, columns = "t_s,amp", [t, rc_step_model(t, 0.9, 30e-9, 0.1e-6) + rng.normal(0.0, 0.02, t.size)]
    path = tmp_path / f"{kind}.csv"
    np.savetxt(path, np.column_stack(columns), delimiter=",", header=header, comments="")
    return path


def flatten(tree, prefix=""):
    """A nested JSON object as one {'a.b.c': value} map."""
    flat = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def strict_json(text):
    """json.loads that rejects NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


def refuse_huge_linspace(monkeypatch, cap):
    """Make np.linspace fail, rather than allocate, above `cap` points, so a
    missing size check fails its test instead of exhausting memory."""
    linspace = np.linspace

    def guarded(start, stop, num=50, *args, **kwargs):
        assert num <= cap, f"np.linspace asked for {num} points"
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", guarded)


def read_csv(path):
    import io

    body = "\n".join(l for l in path.read_text().splitlines() if not l.startswith("#"))
    return np.genfromtxt(io.StringIO(body), delimiter=",", names=True)


class TestConfigParsing:
    def test_flat_parser(self):
        data = parse_flat_toml('a_hz = 1.5e6\nb_db = -3 # comment\nname = "x"\nflag = true\n')
        assert data == {"a_hz": 1.5e6, "b_db": -3, "name": "x", "flag": True}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_flat_toml("a_hz = 1\na_hz = 2\n")

    def test_tables_rejected(self):
        with pytest.raises(ConfigError):
            parse_flat_toml("[device]\na_hz = 1\n")

    def test_parsed_tables_are_not_shared(self):
        """A text is parsed once per process; each caller gets its own table."""
        first = parse_flat_toml("a_hz = 1.0\n")
        first["a_hz"] = 2.0
        assert parse_flat_toml("a_hz = 1.0\n") == {"a_hz": 1.0}

    def test_comment_after_quoted_value(self, tmp_path):
        """A comment after a quoted value used to fail with `cannot parse value`."""
        cfg = load_config(write_config(tmp_path, self.with_line('pump_config = "stokes"  # blue side')))
        assert cfg.get("pump_config") == "stokes" and cfg.pump.configuration is Configuration.STOKES

    def test_underscored_integer_is_int(self, tmp_path):
        """`1_000` used to be read as a float and refused for an int key."""
        cfg = load_config(write_config(tmp_path, self.with_line("grid_points = 1_000")))
        assert cfg.get("grid_points") == 1000 and type(cfg.get("grid_points")) is int

    @pytest.mark.parametrize("line, typ", [("g0_hz = true", "float"), ('mode1_freq_hz = "3.165e9"', "float"),
                                           ("grid_points = true", "int")],
                             ids=["bool_float_key", "string_mode_key", "bool_int_key"])
    def test_wrong_type_exits_1(self, tmp_path, capsys, line, typ):
        """g0_hz = true used to run as g0 = 1 Hz and a string mode key as the
        number it spells, both with exit 0; a bool is no int either."""
        key = line.split(" = ")[0]
        cfg = write_config(tmp_path, self.with_line(line))
        out = tmp_path / "budget.json"
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: key {key!r} must be of type {typ}\n"
        assert not out.exists()

    def test_load_paper_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, PAPER_CONFIG))
        assert cfg.device.left.kappa == pytest.approx(TWO_PI * 190e6, rel=1e-12)
        assert cfg.device.transduction_mode.omega_m == pytest.approx(TWO_PI * 3.48e9)
        assert cfg.pump.power_in == pytest.approx(10 ** 2.1 * 1e-3)
        assert cfg.device.left.omega == pytest.approx(OMEGA_1550, rel=1e-9)
        assert len(cfg.sha256) == 64

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, PAPER_CONFIG + "\nbogus_key_hz = 1.0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_suffix_rejected(self, tmp_path):
        # schema accepts only suffixed keys; a suffix-free numeric key fails
        path = write_config(tmp_path, PAPER_CONFIG + "\ngrid_start = 1.0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_keys_carry_unit_suffixes(self):
        dimensionless = {"pump_config", "grid_points", "power_points", "n_optical_in"}
        mode_suffixes = re.search(r"_\(([\w|]+)\)\$$", _MODE_RE.pattern).group(1).split("|")
        assert len(mode_suffixes) == 4 and dimensionless <= _SCHEMA.keys()
        for key in [*(_SCHEMA.keys() - dimensionless), *mode_suffixes]:
            assert key.endswith(("_hz", "_dbm", "_db", "_k", "_s", "_kg")), key

    def test_missing_required_key(self, tmp_path):
        broken = PAPER_CONFIG.replace('pump_config = "antistokes"\n', "")
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, broken))

    def test_invalid_pump_name(self, tmp_path):
        broken = PAPER_CONFIG.replace('"antistokes"', '"sideways"')
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, broken))

    def test_zero_pump_frequency_is_config_error(self, tmp_path, capsys):
        """pump_freq_hz = 0.0 passes the non-negative key check; the pump
        refuses it, and the verb exits 1 with that message."""
        out = tmp_path / "x.json"
        cfg = write_config(tmp_path, PAPER_CONFIG + "pump_freq_hz = 0.0\n")
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: invalid pump settings: pump frequency must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", ["g0_hz = nan", "coupling_j_hz = inf", "mode1_freq_hz = -inf",
                                      "probes_db = inf", "pump_power_dbm = nan",
                                      pytest.param("g0_hz = 1" + "0" * 309, id="g0_hz = 10**309")])
    def test_non_finite_values_rejected(self, tmp_path, line):
        """An integer beyond the float range is not finite either; it used
        to end in a raw OverflowError traceback."""
        key = line.split(" = ")[0]
        text = "\n".join(line if l.startswith(key + " =") else l for l in PAPER_CONFIG.splitlines())
        with pytest.raises(ConfigError, match=key):
            load_config(write_config(tmp_path, text))

    def test_nan_coupling_budget_exits_1(self, tmp_path, capsys):
        """g0_hz = nan used to give exit 0 and a budget full of NaN tokens."""
        cfg = write_config(tmp_path, PAPER_CONFIG.replace("g0_hz = 42.0", "g0_hz = nan"))
        out = tmp_path / "budget.json"
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, verb, pump_dbm", [("temperature_k", "budget", "21.0"),
                                                     ("temperature_k", "budget", "-inf"),
                                                     ("n_optical_in", "budget", "21.0"),
                                                     ("pulse_edge_s", "pulse", "21.0")])
    def test_negative_value_is_config_error(self, tmp_path, capsys, key, verb, pump_dbm):
        """These keys used to end in a raw ValueError traceback (pump on),
        exit 0 with the negative temperature in the JSON (pump off), or a
        silently rectangular pulse (negative edge)."""
        lines = [l for l in PAPER_CONFIG.splitlines() if not l.startswith((key, "pump_power_dbm"))]
        cfg = write_config(tmp_path, "\n".join(lines) + f"\npump_power_dbm = {pump_dbm}\n{key} = -1.0\n")
        with pytest.raises(ConfigError, match=key):
            load_config(cfg)
        out = tmp_path / "out"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1e-300", "-2"])
    @pytest.mark.parametrize("key", ["temperature_k", "n_optical_in", "pulse_edge_s"])
    def test_negative_value_rejected_on_load(self, tmp_path, key, value):
        """The smallest negative float and a negative integer token are
        caught too, not only -1.0."""
        lines = [l for l in PAPER_CONFIG.splitlines() if not l.startswith(key)]
        cfg = write_config(tmp_path, "\n".join(lines) + f"\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"{key}.*non-negative"):
            load_config(cfg)

    @pytest.mark.parametrize("key", ["temperature_k", "n_optical_in", "pulse_edge_s"])
    def test_zero_value_accepted(self, tmp_path, key):
        lines = [l for l in PAPER_CONFIG.splitlines() if not l.startswith(key)]
        cfg = load_config(write_config(tmp_path, "\n".join(lines) + f"\n{key} = 0.0\n"))
        assert cfg.get(key) == 0.0

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        """A byte that is not UTF-8 used to end in a raw UnicodeDecodeError traceback."""
        cfg = tmp_path / "latin1.toml"
        cfg.write_bytes(b"# \xff\n" + PAPER_CONFIG.encode())
        out = tmp_path / "budget.json"
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config file") and str(cfg) in err
        assert not out.exists()

    @staticmethod
    def with_line(line):
        key = line.split(" = ")[0]
        return "\n".join(line if l.startswith(key + " =") else l for l in PAPER_CONFIG.splitlines())

    @pytest.mark.parametrize("line, verb", [("probes_db = 3e9", "spectrum"),
                                            ("pump_power_dbm = 1e20", "spectrum"),
                                            ("power_stop_dbm = 1e20", "power-sweep")])
    def test_overflowing_db_value_is_config_error(self, tmp_path, capsys, line, verb):
        """Each used to end in a raw OverflowError traceback."""
        cfg = write_config(tmp_path, self.with_line(line))
        out = tmp_path / "out"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and line.split(" = ")[0] in err and "overflows" in err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["spectrum", "power-sweep", "budget"])
    @pytest.mark.parametrize("line", ["right_kappa_ex_hz = 1e300", "left_freq_hz = 1e300", "g0_hz = 1e300",
                                      "g0_hz = 1e306"])
    def test_unbuildable_operating_point_is_config_error(self, tmp_path, capsys, line, verb):
        """The supermodes and the operating point are built at load: these
        used to end in a raw ValueError (linewidths) or OverflowError (g0)
        traceback.  g0_hz = 1e306 overflows the coupling to inf without an
        exception, so an infinite cooperativity is refused too."""
        cfg = write_config(tmp_path, self.with_line(line))
        with pytest.raises(ConfigError, match="invalid device parameters"):
            load_config(cfg)
        out = tmp_path / "out"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid device parameters") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("verb", [["spectrum"], ["power-sweep"], ["budget"], ["pulse"], ["fit", "power"]],
                             ids=" ".join)
    @pytest.mark.parametrize("g0_line", ["g0_hz = 1e300", "g0_hz = 1e150"])
    def test_power_sweep_cooperativity_overflow_is_config_error(self, tmp_path, capsys, verb, g0_line):
        """With the pump off the configured operating point is fine, but the
        cooperativity overflows on the power sweep (1e300 at its first
        power, 1e150 only towards its end): `power-sweep` used to end in a
        raw OverflowError traceback there."""
        text = self.with_line(g0_line).replace("pump_power_dbm = 21.0", "pump_power_dbm = -inf")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        data = ["--data", str(write_fit_data(tmp_path, "power"))] if verb[0] == "fit" else []
        assert main([*verb, "--config", str(cfg), "--out", str(out), *data]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid device parameters: the operating point cannot be built at "
                              "power_stop_dbm: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_budget_single_photon_cooperativity_overflow_is_config_error(self, tmp_path, capsys):
        """g0^2 overflows while the pump is off and no power sweep is
        configured: `budget` used to end in a raw OverflowError traceback
        from the single-photon cooperativity."""
        lines = self.with_line("g0_hz = 1e300").replace("pump_power_dbm = 21.0", "pump_power_dbm = -inf")
        cfg = write_config(tmp_path, "\n".join(l for l in lines.splitlines() if not l.startswith("power_")))
        out = tmp_path / "budget.json"
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: invalid device parameters: the single-photon cooperativity is inf\n"
        assert not out.exists()

    def test_inf_splitting_spectrum_exits_1(self, tmp_path, capsys):
        """coupling_j_hz = inf used to end in a raw ValueError traceback."""
        cfg = write_config(tmp_path, PAPER_CONFIG.replace("coupling_j_hz = 1.74e9", "coupling_j_hz = inf"))
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestCsvRows:
    def test_row_text_matches_per_value_format(self, tmp_path):
        """One printf string per row over the columns gives the text of one
        format call per value."""
        from moptrans.cli import _write_csv

        values = [0.0, -0.0, 1e-300, 1.23456789012345e300, float("nan"), float("inf"),
                  float("-inf"), np.float64(2.0 / 3.0), np.float64(-1e-7), 7, -123456789012345]
        rows = [tuple(values[i:i + 3]) for i in range(0, len(values) - 2)]
        path = tmp_path / "rows.csv"
        _write_csv(path, None, "test", None, ["a", "b", "c"], [np.array(c) for c in zip(*rows)])
        lines = path.read_text().splitlines()
        assert lines[-len(rows):] == [",".join("{:.12g}".format(v) for v in row) for row in rows]


class TestSpectrumCommand:
    def test_single_mode_peak(self, tmp_path):
        # a detuned pump must move the S columns with the efficiency column
        for extra in ("", "pump_detuning_hz = 20.0e6\n"):
            cfg = write_config(tmp_path, PAPER_CONFIG + extra)
            out = tmp_path / "spec.csv"
            assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
            data = read_csv(out)
            peak = data["freq_hz"][np.argmax(data["eta_onchip"])]
            assert peak == pytest.approx(3.48e9, abs=1e6)
            ratio = data["eta_offchip"] / np.clip(data["eta_onchip"], 1e-300, None)
            assert np.allclose(ratio, 10 ** (-0.7), rtol=1e-9)
            s_ac_sq = data["s_ac_re"] ** 2 + data["s_ac_im"] ** 2
            np.testing.assert_allclose(s_ac_sq, data["eta_onchip"], rtol=1e-9, atol=0.0)

    def test_two_mode_peaks(self, tmp_path):
        cfg = write_config(tmp_path, PAPER_CONFIG + TWO_MODE_EXTRA)
        out = tmp_path / "spec2.csv"
        assert main([
            "spectrum", "--config", str(cfg), "--out", str(out),
            "--grid", "3.1e9,3.6e9,2001",
        ]) == 0
        data = read_csv(out)
        eta = data["eta_onchip"]
        f = data["freq_hz"]
        main_peak = eta[np.abs(f - 3.48e9) < 40e6].max()
        aux = np.abs(f - 3.165e9) < 40e6
        aux_peak = eta[aux].max()
        trough = eta[np.abs(f - 3.32e9) < 40e6].max()
        assert main_peak > 20 * trough
        assert aux_peak > 20 * trough
        # at the overtone peak the S columns come from the overtone's own
        # operating point; the residual is the main mode's tail
        i_aux = np.flatnonzero(aux)[np.argmax(eta[aux])]
        s_ac_sq = data["s_ac_re"][i_aux] ** 2 + data["s_ac_im"][i_aux] ** 2
        assert 0.99 <= s_ac_sq / eta[i_aux] <= 1.01

    def test_empty_grid_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, PAPER_CONFIG)
        out = tmp_path / "x.csv"
        code = main(["spectrum", "--config", str(cfg), "--out", str(out),
                     "--grid", "3.4e9,3.5e9,0"])
        assert code == 1

    @pytest.mark.parametrize("grid", ["nan,4e9,10", "3e9,inf,10", "-inf,4e9,10"])
    def test_non_finite_grid_is_config_error(self, tmp_path, capsys, grid):
        """A non-finite --grid end used to end in a raw ValueError traceback."""
        cfg = write_config(tmp_path, PAPER_CONFIG)
        out = tmp_path / "x.csv"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out), f"--grid={grid}"]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        ("1e9,2e9", "--grid expects start,stop,n"),
        ("a,2e9,5", "bad --grid value: could not convert string to float: 'a'"),
        ("1e9,2e9,5.5", "bad --grid value: invalid literal for int() with base 10: '5.5'"),
    ])
    def test_malformed_grid_flag_is_config_error(self, tmp_path, capsys, grid, message):
        """A --grid of the wrong arity or with a non-number exits 1 with its
        message and writes no file."""
        out = tmp_path / "x.csv"
        argv = ["spectrum", "--config", str(write_config(tmp_path, PAPER_CONFIG)), "--out", str(out), f"--grid={grid}"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["grid_points", "--grid"])
    def test_grid_cap_is_config_error(self, tmp_path, capsys, monkeypatch, source):
        """10**10 grid points used to go straight to np.linspace (80 GB):
        exit 1 naming the key, before anything is allocated."""
        refuse_huge_linspace(monkeypatch, cli._MAX_GRID_POINTS)
        n = 10 ** 10
        text = PAPER_CONFIG.replace("grid_points = 201", f"grid_points = {n}")
        argv = ["spectrum", "--config", str(write_config(tmp_path, text)), "--out", str(tmp_path / "x.csv")]
        if source == "--grid":
            argv.append(f"--grid=3.4e9,3.5e9,{n}")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {source} ") and str(n) in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_grid_finer_than_float_about_the_mode_is_config_error(self, tmp_path, capsys):
        """1e-300 to 1e-12 Hz is ascending, but its offsets from the 3.48 GHz
        mode all round to -3.48e9 Hz; this used to end in a raw ValueError
        traceback from `Spectrum`."""
        text = PAPER_CONFIG.replace("grid_start_hz = 3.38e9", "grid_start_hz = 1e-300")
        text = text.replace("grid_stop_hz = 3.58e9", "grid_stop_hz = 1e-12")
        out = tmp_path / "x.csv"
        assert main(["spectrum", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep grid") and "not ascending" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_far_acoustic_mode_spectrum(self, tmp_path):
        """An overtone at 1e300 Hz leaves the spectrum about the transduction
        mode finite: its normal modes are found without squaring 1e300."""
        text = PAPER_CONFIG_FILE.read_text().replace("mode1_freq_hz = 3.165e9", "mode1_freq_hz = 1e300")
        out = tmp_path / "x.csv"
        assert main(["spectrum", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        data = read_csv(out)
        assert all(np.all(np.isfinite(data[name])) for name in data.dtype.names)
        assert data["eta_onchip"].max() > 0.0

    @pytest.mark.parametrize("lines, message", [
        (("mode2_kappa_hz = 0.0", "mode2_kappa_ex_hz = 0.0"),
         "the operating point cannot be built at pump_power_dbm for the 3.165e+09 Hz acoustic mode: "
         "float division by zero"),
        (("mode2_kappa_hz = 1e300",),
         "kappa_o kappa_m at pump_power_dbm for the 3.165e+09 Hz acoustic mode overflows"),
        (("mode1_kappa_hz = 1e300",), "kappa_o kappa_m at pump_power_dbm overflows"),
    ])
    def test_every_acoustic_mode_is_checked_on_load(self, tmp_path, capsys, lines, message):
        """The spectrum builds every acoustic mode's operating point, and its
        poles take kappa_o kappa_m; a point it cannot build, or a product that
        overflows, used to end in a raw ZeroDivisionError or ValueError
        traceback.  Load refuses them, for every verb."""
        text = PAPER_CONFIG + TWO_MODE_EXTRA
        for line in lines:
            key = line.split(" = ")[0]
            text = re.sub(rf"^{key} = .*$", line, text, flags=re.M)
        out = tmp_path / "x.csv"
        assert main(["spectrum", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: invalid device parameters: {message}\n"
        assert not out.exists()

    def test_far_off_resonance_grid(self, tmp_path):
        """A grid near 1e300 Hz squares offsets past the float range; the
        efficiency is its limit there, 0, with no overflow warning."""
        cfg = write_config(tmp_path, PAPER_CONFIG)
        out = tmp_path / "x.csv"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out), "--grid=1e300,2e300,5"]) == 0
        data = read_csv(out)
        assert np.all(data["eta_onchip"] == 0.0) and np.all(data["eta_offchip"] == 0.0)

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, PAPER_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["spectrum", "--config", str(cfg), "--out", str(out1)])
        main(["spectrum", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestPowerSweepCommand:
    def test_slope_and_endpoint(self, tmp_path):
        cfg = write_config(tmp_path, PAPER_CONFIG)
        out = tmp_path / "power.csv"
        assert main(["power-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out)
        # log-log slope 1 in the low-cooperativity regime
        slope = np.polyfit(np.log10(1e-3 * 10 ** (data["power_dbm"] / 10)),
                           np.log10(data["eta_tot"]), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.01)
        eta_db = 10 * np.log10(data["eta_tot"][-1])
        assert abs(eta_db - (-48.0)) < 3.0

    def test_powers_share_the_supermodes(self, tmp_path):
        """Every power of the sweep builds its own operating point, from
        supermodes built once."""
        hybridize._operating_point.cache_clear()
        hybridize._supermodes.cache_clear()
        out = tmp_path / "sweep.csv"
        assert main(["power-sweep", "--config", str(write_config(tmp_path, PAPER_CONFIG)), "--out", str(out)]) == 0
        assert hybridize._supermodes.cache_info().misses == 1

    def test_minus_inf_start_is_config_error(self, tmp_path):
        """-inf is a valid _dbm value (pump off) but not a sweep start: it used
        to give exit 0 and NaN rows."""
        text = PAPER_CONFIG.replace("power_start_dbm = 0.0", "power_start_dbm = -inf")
        out = tmp_path / "power.csv"
        assert main(["power-sweep", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
        assert not out.exists()

    def test_pump_detuning_rejected(self, tmp_path, capsys):
        check_pump_detuning(tmp_path, capsys, "power-sweep", "power.csv")

    def test_power_points_cap_is_config_error(self, tmp_path, capsys, monkeypatch):
        """10**10 power points used to go straight to np.linspace (80 GB):
        exit 1 naming the key, before anything is allocated."""
        refuse_huge_linspace(monkeypatch, cli._MAX_POWER_POINTS)
        text = PAPER_CONFIG.replace("power_points = 8", f"power_points = {10 ** 10}")
        out = tmp_path / "power.csv"
        assert main(["power-sweep", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: power_points = 10000000000") and "Traceback" not in err
        assert not out.exists()

    def test_huge_cooperativity_rows_are_finite(self, tmp_path):
        """A 1e-300 Hz acoustic linewidth gives C ~ 1e300 at the top powers,
        whose (1 + C)^2 used to raise a raw OverflowError."""
        text = PAPER_CONFIG.replace("mode1_kappa_hz = 13.0e6", "mode1_kappa_hz = 1e-300")
        text = text.replace("mode1_kappa_ex_hz = 1.43e6", "mode1_kappa_ex_hz = 0.0")
        out = tmp_path / "sweep.csv"
        assert main(["power-sweep", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        data = read_csv(out)
        assert all(np.all(np.isfinite(data[name])) for name in data.dtype.names)
        assert data["C"][-1] > 1e300

    def test_tiny_power_row_is_negligible(self, tmp_path):
        text = PAPER_CONFIG.replace("power_start_dbm = 0.0", "power_start_dbm = -200.0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "power.csv"
        main(["power-sweep", "--config", str(cfg), "--out", str(out)])
        data = read_csv(out)
        assert data["eta_tot"][0] < 1e-25
        assert data["C"][0] < 1e-20


class TestPulseCommand:
    def test_rise_time(self, tmp_path):
        from moptrans.calibrate import fit_rc_step

        text = PAPER_CONFIG + "sim_duration_s = 0.45e-6\n"
        # widen the transducer so the lock-in dominates the rise
        text = text.replace("left_kappa_int_hz = 130.0e6", "left_kappa_int_hz = 700.0e6")
        text = text.replace("right_kappa_int_hz = 94.0e6", "right_kappa_int_hz = 700.0e6")
        text = text.replace("mode1_kappa_hz = 13.0e6", "mode1_kappa_hz = 300.0e6")
        text = text.replace("mode1_kappa_ex_hz = 1.43e6", "mode1_kappa_ex_hz = 33.0e6")
        text = text.replace('pump_config = "antistokes"', 'pump_config = "stokes"')
        text = text.replace("pump_power_dbm = 21.0", "pump_power_dbm = 17.0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "pulse.csv"
        assert main(["pulse", "--config", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out)
        report = fit_rc_step(data["t_s"], data["amp"])
        assert report.parameters["tau_rc"] == pytest.approx(30e-9, rel=0.05)

    def test_pump_off_zero_trace(self, tmp_path):
        text = PAPER_CONFIG.replace("pump_power_dbm = 21.0", "pump_power_dbm = -inf")
        text += "sim_duration_s = 0.2e-6\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "pulse.csv"
        assert main(["pulse", "--config", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out)
        assert np.max(data["amp"]) < 1e-12

    def test_pump_detuning_rejected(self, tmp_path, capsys):
        check_pump_detuning(tmp_path, capsys, "pulse", "pulse.csv", "sim_duration_s = 0.1e-6\n")

    def test_duty_cycle_violation(self, tmp_path):
        text = PAPER_CONFIG.replace("pulse_on_s = 1.0e-6", "pulse_on_s = 2.0e-5")
        cfg = write_config(tmp_path, text)
        assert main(["pulse", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("key, value", [("lockin_tau_s", "0.0"), ("lockin_tau_s", "-30.0e-9"),
                                            ("sim_duration_s", "-0.1e-6")])
    def test_nonpositive_time_is_config_error(self, tmp_path, capsys, key, value):
        text = "\n".join(l for l in PAPER_CONFIG.splitlines() if not l.startswith(key))
        cfg = write_config(tmp_path, f"{text}\n{key} = {value}\n")
        out = tmp_path / "pulse.csv"
        assert main(["pulse", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "Traceback" not in err
        assert not out.exists()

    def test_step_cap_is_config_error(self, tmp_path, capsys):
        """A lock-in time constant of 1 s asks for about 1e12 steps: exit 1
        naming the keys that set the window, before anything is allocated."""
        text = PAPER_CONFIG.replace("lockin_tau_s = 30.0e-9", "lockin_tau_s = 1.0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "pulse.csv"
        assert main(["pulse", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"config error: the pulsed window needs \d{13} integrator steps, more than 8388608: "
                            r"shorten lockin_tau_s or sim_duration_s\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("pump_config", ["antistokes", "stokes"])
    @pytest.mark.parametrize("line", ["lockin_tau_s = 1e300", "sim_duration_s = 1e300"])
    def test_infinite_step_count_is_config_error(self, tmp_path, capsys, pump_config, line):
        """A window of about 1e311 steps is inf as a float; it used to end in
        a raw OverflowError traceback from int()."""
        text = PAPER_CONFIG.replace('pump_config = "antistokes"', f'pump_config = "{pump_config}"')
        if line.startswith("lockin_tau_s"):
            text = text.replace("lockin_tau_s = 30.0e-9", line)
        else:
            text += line + "\n"
        out = tmp_path / "pulse.csv"
        assert main(["pulse", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: the pulsed window needs inf integrator steps")
        assert "Traceback" not in err
        assert not out.exists()

    def test_pump_frequency_reaches_the_pulse(self, tmp_path, monkeypatch):
        """With pump_freq_hz set, the pulse builds the Stokes point that
        `operating_point` gives for the run's pump.  It used to build its
        pump from the power alone, with the 1550 nm photon energy: at
        228.85 THz and 10 dBm it held 4.01e7 pump photons, not 3.39e7."""
        from moptrans import timedomain

        built = []

        def spy(*args, **kwargs):
            built.append(hybridize.operating_point(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(timedomain, "operating_point", spy)
        text = PAPER_CONFIG.replace("pump_power_dbm = 21.0", "pump_power_dbm = 10.0")
        cfg = write_config(tmp_path, text + "pump_freq_hz = 228.85e12\nsim_duration_s = 0.02e-6\n")
        assert main(["pulse", "--config", str(cfg), "--out", str(tmp_path / "pulse.csv")]) == 0
        run = load_config(cfg)
        stokes = hybridize.operating_point(run.device, dataclasses.replace(run.pump, configuration=Configuration.STOKES))
        assert built == [stokes]
        assert stokes.n_pump == pytest.approx(3.39e7, rel=0.01)

    def test_step_too_coarse_for_the_linewidths_is_config_error(self, tmp_path, capsys):
        """A 1e12 Hz acoustic linewidth outruns the pulse's 24 steps per
        acoustic carrier cycle: exit 1 with the step message and its own
        advice, before any step is taken.  RK4 used to diverge, and `pulse`
        exited 3 with "trajectory diverged", a step failure reported as
        physics (and exited 0 with NaN rows before that)."""
        text = PAPER_CONFIG.replace("mode1_kappa_hz = 13.0e6", "mode1_kappa_hz = 1e12")
        text = text.replace("lockin_tau_s = 30.0e-9", "lockin_tau_s = 1e-12") + "sim_duration_s = 2e-9\n"
        out = tmp_path / "pulse.csv"
        assert main(["pulse", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
        assert re.fullmatch(r"config error: step dt=\S+ too coarse: need dt <= 2e-14: 24 steps per acoustic "
                            r"carrier cycle are too few for the device's linewidths\n", capsys.readouterr().err)
        assert not out.exists()

    def test_stokes_instability_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PAPER_CONFIG.replace("g0_hz = 42.0", "g0_hz = 4.2e6"))
        out = tmp_path / "pulse.csv"
        assert main(["pulse", "--config", str(cfg), "--out", str(out)]) == 3
        assert re.search(r"instability: Stokes pumping at C = \S+ >= 1 is above threshold",
                         capsys.readouterr().err)
        assert not out.exists()

    def run_decimated(self, tmp_path, monkeypatch):
        """`pulse` on a short window; returns the CSV lines and the full
        (t, amp, phase) that `pulsed_downconversion` handed to the writer."""
        from moptrans import timedomain

        original, full = timedomain.pulsed_downconversion, []

        def spy(*args, **kwargs):
            full.append(original(*args, **kwargs))
            return full[-1]

        monkeypatch.setattr(timedomain, "pulsed_downconversion", spy)
        cfg = write_config(tmp_path, PAPER_CONFIG + "sim_duration_s = 0.1e-6\n")
        out = tmp_path / "pulse.csv"
        assert main(["pulse", "--config", str(cfg), "--out", str(out)]) == 0
        return out.read_text().splitlines(), full[0]

    def test_rows_are_decimated_lockin_samples(self, tmp_path, monkeypatch):
        lines, (t, amp, phase) = self.run_decimated(tmp_path, monkeypatch)
        rows = [l for l in lines if not l.startswith("#")][1:]
        tau = 30.0e-9
        stride = max(1, int(tau / (100.0 * t[1])))
        keep = list(range(0, t.size - 1, stride)) + [t.size - 1]
        assert stride > 1 and len(rows) == len(keep) < t.size
        assert rows == ["%.12g,%.12g,%.12g" % (t[i], amp[i], phase[i]) for i in keep]
        assert rows[0].startswith("0,") and rows[-1] == "%.12g,%.12g,%.12g" % (t[-1], amp[-1], phase[-1])
        assert np.max(np.diff(t[keep])) <= tau / 100.0 * (1.0 + 1e-12)

    def test_diag_line_reaches_file(self, tmp_path, monkeypatch):
        lines, (t, _, _) = self.run_decimated(tmp_path, monkeypatch)
        header = lines.index("t_s,amp,phase")
        diag = [l for l in lines[:header] if l.startswith("# diag: ")]
        assert len(diag) == 1 and lines[header - 1] == diag[0]
        fields = dict(f.split("=") for f in diag[0][len("# diag: "):].split())
        assert fields == {"integrator_steps": str(t.size - 1), "dt_s": repr(float(t[1])),
                          "decimation_stride": str(max(1, int(30.0e-9 / (100.0 * t[1]))))}


class TestFitCommand:
    def test_doublet_round_trip(self, tmp_path):
        """Per-spectrum doublet fit through file I/O: the supermode
        observables come back, with finite variances and no flags."""
        cfg = write_config(tmp_path, PAPER_CONFIG)
        freq = np.linspace(193.4117e12, 193.4172e12, 1400)
        center = TWO_PI * 193.41446e12
        trans = doublet_transmission(
            TWO_PI * freq, TWO_PI * 190e6, TWO_PI * 154e6, TWO_PI * 60e6,
            TWO_PI * 1.74e9, 0.0, center,
        )
        data = tmp_path / "doublet.csv"
        np.savetxt(data, np.column_stack([freq, trans]), delimiter=",",
                   header="freq_hz,transmission", comments="")
        out = tmp_path / "fit.json"
        assert main(["fit", "doublet", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["flags"] == []
        assert None not in report["covariance_diag"].values()
        p = report["parameters"]
        assert p["kappa_ex"] == pytest.approx(TWO_PI * 60e6, rel=0.01)
        assert 0.5 * (p["kappa_plus"] + p["kappa_minus"]) == pytest.approx(TWO_PI * 172e6, rel=0.01)
        assert p["splitting"] == pytest.approx(TWO_PI * 3.48e9, rel=0.01)
        assert p["omega_center"] == pytest.approx(center, rel=1e-9)

    def test_s11_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, PAPER_CONFIG)
        km = TWO_PI * 3.48e9 / 284
        omega = TWO_PI * 3.48e9 + np.linspace(-8 * km, 8 * km, 500)
        s11 = s11_model(omega, TWO_PI * 3.48e9, km, 0.11 * km)
        data = tmp_path / "s11.csv"
        np.savetxt(data, np.column_stack([omega / TWO_PI, s11.real, s11.imag]),
                   delimiter=",", header="freq_hz,re,im", comments="")
        out = tmp_path / "fit.json"
        assert main(["fit", "s11", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["parameters"]["Q_m"] == pytest.approx(284.0, rel=0.01)
        assert report["parameters"]["eta_m"] == pytest.approx(0.11, rel=0.01)

    def test_power_fit_appendix_regression(self, tmp_path):
        """Single -60 dB point at 10 dBm through file I/O gives the
        back-calculated C0 ~ 8e-13 and g0 ~ 2pi x 42 Hz."""
        text = PAPER_CONFIG.replace("mode1_kappa_ex_hz = 1.43e6", "mode1_kappa_ex_hz = 1.43e6")
        # the inversion uses kappa_o = 2pi x 170 MHz and eta_o = 0.35 from
        # the device config supermodes (172 MHz, 0.349): accept 5%
        cfg = write_config(tmp_path, text)
        data = tmp_path / "power.csv"
        np.savetxt(data, np.array([[10.0, 1e-6]]), delimiter=",",
                   header="power_dbm,eta_tot", comments="")
        out = tmp_path / "fit.json"
        assert main(["fit", "power", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["parameters"]["C0"] == pytest.approx(8e-13, rel=0.05)
        assert report["parameters"]["g0"] == pytest.approx(TWO_PI * 42.0, rel=0.05)

    def test_step_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, PAPER_CONFIG)
        t = np.linspace(0, 0.5e-6, 1200)
        env = rc_step_model(t, 0.9, 30e-9, 0.1e-6)
        data = tmp_path / "step.csv"
        np.savetxt(data, np.column_stack([t, env]), delimiter=",",
                   header="t_s,amp", comments="")
        out = tmp_path / "fit.json"
        assert main(["fit", "step", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["parameters"]["tau_rc"] == pytest.approx(30e-9, rel=0.01)

    def test_malformed_data_file(self, tmp_path):
        cfg = write_config(tmp_path, PAPER_CONFIG)
        data = tmp_path / "bad.csv"
        data.write_text("freq_hz,transmission\nnot,numbers\n")
        code = main(["fit", "doublet", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_singular_covariance_is_strict_json(self, tmp_path, monkeypatch):
        """A non-finite variance is written as null under one
        'singular-covariance' flag, in strict JSON through the CLI; NaN
        variances used to reach the file, which is not JSON."""
        units = {"amplitude": "signal", "tau_rc": "s", "t0": "s"}
        report = _report(units, (0.9, 3e-8, 1e-7), (1e-6, math.nan, math.inf), 0.1, 7)
        assert report.covariance_diag == {"amplitude": 1e-6, "tau_rc": None, "t0": None}
        assert report.flags == ("singular-covariance: J^T J is not invertible; no variance for tau_rc, t0",)
        monkeypatch.setattr(calibrate, "fit_rc_step", lambda t, env: report)
        out = tmp_path / "fit.json"
        assert main(["fit", "step", "--data", str(write_fit_data(tmp_path, "step")), "--out", str(out)]) == 0
        written = strict_json(out.read_text())
        assert written["covariance_diag"] == report.covariance_diag
        assert written["flags"] == list(report.flags)

    @pytest.mark.parametrize("kind", ["doublet", "s11", "power", "step"])
    def test_output_is_strict_json(self, tmp_path, kind):
        """Every fit kind writes strict JSON with a finite variance for each
        parameter.  The doublet spectrum (seed 504, 2% noise) is one on which
        the bare-ring fit found J^T J singular."""
        cfg = write_config(tmp_path, PAPER_CONFIG)
        out = tmp_path / "fit.json"
        assert main(["fit", kind, "--config", str(cfg), "--data", str(write_fit_data(tmp_path, kind)),
                     "--out", str(out)]) == 0
        report = strict_json(out.read_text())
        assert report["converged"] is True
        assert all(v is not None and math.isfinite(v) for v in report["covariance_diag"].values())

    @pytest.mark.parametrize("kind, header, rows", [
        ("s11", "freq_hz,re,im", [[3.48e9 + k * 1e6, -1.0, 0.0] for k in range(5)]),
        ("power", "power_dbm,eta_tot", [[10.0, 1e-6], [12.0, -1e-6]]),
        ("power", "power_dbm,eta_tot", [[-400.0, 1e300], [-390.0, 1e300]]),  # C0 overflows
    ])
    def test_bad_fit_input_is_config_error(self, tmp_path, kind, header, rows):
        """Input errors raised by the fit functions reach the user as config
        errors (exit 1), not as tracebacks."""
        cfg = write_config(tmp_path, PAPER_CONFIG)
        data = tmp_path / "data.csv"
        np.savetxt(data, np.array(rows), delimiter=",", header=header, comments="")
        res = run_cli("fit", kind, "--config", cfg, "--data", data, "--out", tmp_path / "x.json")
        assert res.returncode == 1
        assert "config error" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("defect", ["header-only", "text-cell", "nan-cell", "comment-in-data"])
    def test_unreadable_data_is_config_error(self, tmp_path, defect):
        """Each defect of an otherwise valid 900-row step file is a config
        error naming the file: exit 1, no traceback, no output.  '#' lines
        are metadata above the header only; one among the rows is an error."""
        t = np.linspace(0.0, 0.5e-6, 900)
        rows = ["%.17g,%.17g" % row for row in zip(t, rc_step_model(t, 0.9, 30e-9, 0.1e-6))]
        rows = {
            "header-only": [],
            "text-cell": rows[:450] + ["2.5e-07,abc"] + rows[451:],
            "nan-cell": rows[:450] + ["2.5e-07,nan"] + rows[451:],
            "comment-in-data": rows[:450] + ["# gap"] + rows[450:],
        }[defect]
        data = tmp_path / "step.csv"
        data.write_text("\n".join(["# moptrans", "t_s,amp", *rows]) + "\n")
        res = run_cli("fit", "step", "--data", data, "--out", tmp_path / "x.json")
        assert res.returncode == 1
        assert "config error" in res.stderr and "step.csv" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "x.json").exists()

    def test_one_row_data_file(self, tmp_path):
        """One row reads as one-element columns; columns past n_cols are
        ignored."""
        data = tmp_path / "power.csv"
        data.write_text("# moptrans\npower_dbm,eta_tot,note\n10.0,1e-06,3\n")
        dbm, eta = _read_csv_columns(data, 2)
        assert dbm.shape == eta.shape == (1,)
        assert (dbm[0], eta[0]) == (10.0, 1e-6)

    def test_config_optional_except_power(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PAPER_CONFIG)
        km = TWO_PI * 3.48e9 / 284
        omega = TWO_PI * 3.48e9 + np.linspace(-8 * km, 8 * km, 500)
        s11 = s11_model(omega, TWO_PI * 3.48e9, km, 0.11 * km)
        data = tmp_path / "s11.csv"
        np.savetxt(data, np.column_stack([omega / TWO_PI, s11.real, s11.imag]),
                   delimiter=",", header="freq_hz,re,im", comments="")
        texts = []
        for config in (["--config", str(cfg)], []):
            out = tmp_path / "fit.json"
            assert main(["fit", "s11", *config, "--data", str(data), "--out", str(out),
                         "--seed", "3"]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        power = tmp_path / "power.csv"
        np.savetxt(power, np.array([[10.0, 1e-6]]), delimiter=",",
                   header="power_dbm,eta_tot", comments="")
        assert main(["fit", "power", "--data", str(power), "--out", str(tmp_path / "p.json")]) == 1
        assert "--config" in capsys.readouterr().err


class TestExitCodeContract:
    """Each refusal through in-process `cli.main`: its exit code, its one
    stderr line, and no output file."""

    @staticmethod
    def run(capsys, tmp_path, argv):
        """(exit code, stderr) of `argv` with an --out file that must not
        be written."""
        out = tmp_path / "out.txt"
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert not out.exists()
        return code, captured.err

    def test_flat_envelope_exits_2(self, tmp_path, capsys):
        data = tmp_path / "step.csv"
        t = np.linspace(0.0, 0.5e-6, 400)
        np.savetxt(data, np.column_stack([t, np.full(t.size, 0.5)]), delimiter=",", header="t_s,amp", comments="")
        assert self.run(capsys, tmp_path, ["fit", "step", "--data", str(data)]) == (
            2, "convergence error: no rising edge detected in the envelope\n")

    def test_evaluation_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(calibrate, "_MAX_NFEV", 1)
        data = write_fit_data(tmp_path, "s11")
        assert self.run(capsys, tmp_path, ["fit", "s11", "--data", str(data)]) == (
            2, "convergence error: S11 fit did not converge\n")

    @pytest.mark.parametrize("text, message", [
        ("freq_hz,re\n3.48e9,-1.0\n", "needs 3 named columns"),
        ("# moptrans\nfreq_hz,re,im\n", "has no data rows"),
        ("freq_hz,re,im\n3.48e9,-1.0,0.0\n3.49e9,nan,0.0\n", "contains non-numeric entries"),
    ], ids=["too-few-columns", "no-rows", "nan-entry"])
    def test_bad_data_file_exits_1(self, tmp_path, capsys, text, message):
        data = tmp_path / "s11.csv"
        data.write_text(text)
        assert self.run(capsys, tmp_path, ["fit", "s11", "--data", str(data)]) == (
            1, f"config error: data file {str(data)!r} {message}\n")

    @pytest.mark.parametrize("drop, verb, message", [
        (r"grid_\w+", "spectrum",
         "config is missing required keys for this command: ['grid_start_hz', 'grid_stop_hz', 'grid_points']"),
        (r"mode1_\w+", "budget", "config defines no acoustic modes (mode1_freq_hz, ...)"),
        (r"mode1_kappa_ex_hz", "budget", "acoustic mode 1 is missing 'mode1_kappa_ex_hz'"),
    ], ids=["no-grid", "no-modes", "no-kappa-ex"])
    def test_incomplete_config_exits_1(self, tmp_path, capsys, drop, verb, message):
        text = re.sub(rf"^{drop} = .*\n", "", PAPER_CONFIG, flags=re.M)
        cfg = write_config(tmp_path, text)
        assert self.run(capsys, tmp_path, [verb, "--config", str(cfg)]) == (1, f"config error: {message}\n")


class TestBudgetCommand:
    def test_paper_numbers(self, tmp_path):
        cfg = write_config(tmp_path, PAPER_CONFIG)
        out = tmp_path / "budget.json"
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        eff = report["efficiency"]
        assert abs(eff["eta_tot_db"] - (-48.0)) < 3.0
        assert eff["eta_oc"] == pytest.approx(7.9e-5, rel=0.30)
        assert eff["eta_int"] == pytest.approx(2e-3, rel=0.30)
        assert eff["stages"]["C0"] == pytest.approx(8e-13, rel=0.05)
        # 800 mK decoherence for the 3.48 GHz mode at kappa_m = 2pi x 13 MHz
        assert report["thermal"]["n_thermal"] == pytest.approx(4.33, rel=0.02)
        assert report["thermal"]["decoherence_rate_hz"] == pytest.approx(
            13e6 * report["thermal"]["n_thermal"], rel=1e-9
        )

    def test_tiny_coupling_of_identical_rings(self, tmp_path):
        """Identical rings with coupling_j_hz = 1e-270 used to end in a raw
        ZeroDivisionError traceback: J^2, the splitting and the eigenvector
        components underflowed to zero.  The budget equals that at 1e-100."""
        text = PAPER_CONFIG_FILE.read_text().replace("right_kappa_int_hz = 94.0e6",
                                                     "right_kappa_int_hz = 130.0e6")
        sections = []
        for j_hz in ("1.0e-270", "1.0e-100"):
            cfg = write_config(tmp_path, text.replace("coupling_j_hz = 1.74e9", f"coupling_j_hz = {j_hz}"))
            out = tmp_path / "budget.json"
            assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 0
            budget = json.loads(out.read_text())
            sections.append(flatten({k: budget[k] for k in ("efficiency", "added_noise")}))
        assert sections[0] == pytest.approx(sections[1], rel=1e-12, abs=0.0)

    def test_stokes_budget_includes_pairs(self, tmp_path):
        text = PAPER_CONFIG.replace('pump_config = "antistokes"', 'pump_config = "stokes"')
        cfg = write_config(tmp_path, text)
        out = tmp_path / "budget.json"
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        pair = report["pair_generation"]
        assert pair is not None
        assert "discrepancy" in pair["note"]
        assert pair["numeric"] == pytest.approx(pair["closed_form"], rel=5e-3)
        assert report["added_noise"]["n_added_up"] >= 1.0

    def test_one_operating_point_build(self, tmp_path):
        """The efficiency ledger, the noise, the pair rate and g2 of one
        Stokes budget share one operating point: the memo misses once."""
        text = PAPER_CONFIG.replace('pump_config = "antistokes"', 'pump_config = "stokes"')
        hybridize._operating_point.cache_clear()
        out = tmp_path / "budget.json"
        assert main(["budget", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        info = hybridize._operating_point.cache_info()
        assert info.misses == 1 and info.hits >= 4

    def test_non_finite_noise_is_config_error(self, tmp_path, capsys):
        """mode2_kappa_ex_hz = 1e-300 makes the added noise infinite and NaN;
        it used to exit 0 with NaN and Infinity tokens in the JSON."""
        text = PAPER_CONFIG_FILE.read_text().replace("mode2_kappa_ex_hz = 1.43e6", "mode2_kappa_ex_hz = 1e-300")
        out = tmp_path / "budget.json"
        assert main(["budget", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: the output would contain a non-finite number")
        assert "Traceback" not in err
        assert not out.exists()

    def test_vanishing_mode_frequency_is_config_error(self, tmp_path, capsys):
        """A 1e-300 Hz transduction mode has an occupancy past the float range;
        it used to end in a raw ZeroDivisionError traceback, and the strict
        JSON now refuses it."""
        text = PAPER_CONFIG.replace("coupling_j_hz = 1.74e9", "coupling_j_hz = 2.0")
        text = text.replace("mode1_freq_hz = 3.48e9", "mode1_freq_hz = 1e-300")
        out = tmp_path / "budget.json"
        assert main(["budget", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: the output would contain a non-finite number")
        assert not out.exists()

    def test_underflowing_eta_stokes_budget_is_instability(self, tmp_path, capsys):
        """kappa_ex_m = 1e-300 Hz at 0 K: eta_- squares to 0 in g2, which used
        to raise a raw ZeroDivisionError."""
        text = PAPER_CONFIG.replace('pump_config = "antistokes"', 'pump_config = "stokes"')
        text = text.replace("mode1_kappa_ex_hz = 1.43e6", "mode1_kappa_ex_hz = 1e-300")
        text = text.replace("temperature_k = 0.8", "temperature_k = 0.0")
        out = tmp_path / "budget.json"
        assert main(["budget", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 3
        assert "cross-correlation diverges" in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_temperature_is_zero_kelvin(self, tmp_path):
        """temperature_k = 5e-324 used to end in a raw ZeroDivisionError
        (k_B T underflows to 0); the budget is the one at 0 K."""
        reports = []
        for kelvin in ("5e-324", "0.0"):
            text = PAPER_CONFIG_FILE.read_text().replace("temperature_k = 298.0", f"temperature_k = {kelvin}")
            out = tmp_path / "budget.json"
            assert main(["budget", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
            report = strict_json(out.read_text())
            del report["config_sha256"], report["thermal"]["temperature_k"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["thermal"]["n_thermal"] == 0.0

    def test_lossless_chain_collapse(self, tmp_path):
        text = PAPER_CONFIG.replace("probes_db = -3.0", "probes_db = -0.0")
        text = text.replace("fiber_chip_db = -4.0", "fiber_chip_db = -0.0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "budget.json"
        main(["budget", "--config", str(cfg), "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["efficiency"]["eta_tot"] == pytest.approx(
            report["efficiency"]["eta_oc"], rel=1e-12
        )

    def test_pump_detuning_rejected(self, tmp_path, capsys):
        check_pump_detuning(tmp_path, capsys, "budget", "budget.json")

    @pytest.mark.parametrize("conf", ["antistokes", "stokes"])
    def test_pump_off(self, tmp_path, conf):
        """With the pump off, eta_ext is the pumped report's (it does not
        depend on pump power) and everything the pump drives is zero or
        absent."""
        text = PAPER_CONFIG.replace('"antistokes"', f'"{conf}"')
        reports = []
        for dbm in ("21.0", "-inf"):
            cfg = write_config(tmp_path, text.replace("pump_power_dbm = 21.0", f"pump_power_dbm = {dbm}"))
            out = tmp_path / "budget.json"
            assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        on, off = reports
        assert on["efficiency"]["eta_ext"] > 0.0
        assert off["efficiency"]["eta_ext"] == pytest.approx(on["efficiency"]["eta_ext"], rel=1e-12)
        assert all(off["efficiency"][k] == 0.0 for k in ("eta_int", "eta_oc", "eta_tot", "cooperativity"))
        assert off["pair_generation"] is None and off["added_noise"] is None
        assert off["thermal"] == on["thermal"]

    @pytest.mark.parametrize("dbm", ["21.0", "-inf"])
    @pytest.mark.parametrize("conf", ["antistokes", "stokes"])
    def test_section_keys(self, tmp_path, conf, dbm):
        text = PAPER_CONFIG.replace('"antistokes"', f'"{conf}"')
        cfg = write_config(tmp_path, text.replace("pump_power_dbm = 21.0", f"pump_power_dbm = {dbm}"))
        out = tmp_path / "budget.json"
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        pumped = dbm != "-inf"
        assert report.keys() == {"efficiency", "pair_generation", "added_noise", "thermal", "config_sha256"}
        eff = report["efficiency"]
        assert eff.keys() == {"eta_int", "eta_ext", "eta_oc", "eta_tot", "eta_tot_linearized",
                              "cooperativity", "n_bar", "stages"} | ({"eta_tot_db"} if pumped else set())
        assert eff["stages"].keys() == ({"eta_probes", "eta_fiber_chip", "eta_o", "eta_m", "C0", "n_bar",
                                         "sideband_resolution"} if pumped else set())
        assert report["thermal"].keys() == {"temperature_k", "n_thermal", "decoherence_rate_hz"}
        if not pumped:
            assert report["added_noise"] is None and report["pair_generation"] is None
            return
        assert report["added_noise"].keys() == {"n_added_up", "n_added_down", "breakdown_up", "breakdown_down"}
        if conf == "antistokes":
            assert report["pair_generation"] is None
        else:
            assert report["pair_generation"].keys() == {
                "closed_form", "numeric", "alternate_convention", "convention", "note",
                "g2_cross_zero_offset", "cauchy_schwarz_violated", "cauchy_schwarz_assumption"}

    def test_missing_config_file(self, tmp_path):
        assert main(["budget", "--config", str(tmp_path / "nope.toml"),
                     "--out", str(tmp_path / "x.json")]) == 1

    def test_stokes_instability_exit_code(self, tmp_path):
        text = PAPER_CONFIG.replace('pump_config = "antistokes"', 'pump_config = "stokes"')
        text = text.replace("g0_hz = 42.0", "g0_hz = 4.2e6")
        cfg = write_config(tmp_path, text)
        code = main(["budget", "--config", str(cfg), "--out", str(tmp_path / "x.json")])
        assert code == 3


class TestEntryPoint:
    def test_python_m_runs_cli(self):
        res = run_cli("--version")
        assert res.returncode == 0
        assert res.stdout.strip() == moptrans.__version__ == "0.1.0"

    def test_help_exits_0(self):
        res = run_cli("spectrum", "--help")
        assert res.returncode == 0
        assert "--grid" in res.stdout and res.stderr == ""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--config", PAPER_CONFIG_FILE],
        ["transmogrify", "--config", PAPER_CONFIG_FILE, "--out", "OUT"],
        ["spectrum", "--config", PAPER_CONFIG_FILE, "--out", "OUT", "--seed", "x"],
        ["budget", "--config", PAPER_CONFIG_FILE, "--out", "OUT", "--grid", "1,2,3"],
    ])
    def test_usage_error_exits_1(self, tmp_path, argv):
        # 2 is the non-convergence code, so a usage error must not use it
        res = run_cli(*(tmp_path / "out" if a == "OUT" else a for a in argv))
        assert res.returncode == 1
        assert res.stderr.startswith("usage: moptrans")
        assert "error:" in res.stderr and "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("defect", ["directory", "missing parent"])
    @pytest.mark.parametrize("verb", ["spectrum", "budget", "fit"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, verb, defect):
        """An --out that cannot be opened used to end in a raw IsADirectoryError
        or FileNotFoundError traceback."""
        out = tmp_path / "dir" if defect == "directory" else tmp_path / "missing" / "out"
        if defect == "directory":
            out.mkdir()
        if verb == "fit":
            argv = ["fit", "s11", "--data", str(write_fit_data(tmp_path, "s11"))]
        else:
            argv = [verb, "--config", str(PAPER_CONFIG_FILE)]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output file") and str(out) in err
        assert out.is_dir() if defect == "directory" else not out.parent.exists()

    def test_repeated_calls_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        """Calls in one process, usage errors, --version and --help among them,
        each give the exit code, stdout, stderr and output bytes that the same
        argv gives in a fresh interpreter."""
        monkeypatch.setenv("COLUMNS", "80")  # usage and help wrap alike in both processes
        data = write_fit_data(tmp_path, "s11")
        calls = [
            (1, ["spectrum", "--config", PAPER_CONFIG_FILE]),
            (0, ["--version"]),
            (0, ["spectrum", "--help"]),
            (0, ["spectrum", "--config", PAPER_CONFIG_FILE, "--out", "OUT", "--seed", "3"]),
            (0, ["fit", "s11", "--data", data, "--out", "OUT"]),
            (0, ["budget", "--config", PAPER_CONFIG_FILE, "--out", "OUT"]),
            (1, ["budget", "--config", PAPER_CONFIG_FILE, "--out", "OUT", "--grid", "1,2,3"]),
        ]
        for k, (expected_code, argv) in enumerate(calls):
            results = {}
            for side in ("in-process", "fresh"):
                out = tmp_path / side / f"{k}.out"
                out.parent.mkdir(exist_ok=True)
                args = [str(out) if a == "OUT" else str(a) for a in argv]
                if side == "fresh":
                    res = run_cli(*args)
                    code, stdout, stderr = res.returncode, res.stdout, res.stderr
                else:
                    try:
                        code = main(args)
                    except SystemExit as exc:
                        code = exc.code
                    stdout, stderr = capsys.readouterr()
                results[side] = (code, stdout, stderr, out.read_bytes() if out.exists() else None)
            assert results["in-process"] == results["fresh"], argv
            assert results["fresh"][0] == expected_code, argv

    def test_parser_built_once_per_process(self, tmp_path):
        """Importing the CLI builds no parser; the first `main` call builds
        it and later calls reuse it."""
        script = (
            "import argparse, json, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(None)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import moptrans.cli\n"
            "counts = [len(built)]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert moptrans.cli.main(argv) == 0\n"
            "    counts.append(len(built))\n"
            "print(json.dumps(counts))\n"
        )
        argv = [[verb, "--config", str(PAPER_CONFIG_FILE), "--out", str(tmp_path / f"{k}.out")]
                for k, verb in enumerate(["budget", "power-sweep", "budget", "spectrum"])]
        res = run_python("-c", script, json.dumps(argv))
        assert res.returncode == 0, res.stderr
        counts = json.loads(res.stdout.splitlines()[-1])
        assert counts[0] == 0
        assert counts[1] > 0 and counts[1:] == [counts[1]] * len(argv)

    def test_submodules_load_no_networkx_or_scipy(self):
        script = (
            "import importlib, json, pkgutil, sys\n"
            "import moptrans\n"
            "names = [m.name for m in pkgutil.iter_modules(moptrans.__path__, 'moptrans.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "loaded = sorted(m for m in sys.modules if m.startswith(('networkx', 'scipy')))\n"
            "print(json.dumps([names, loaded]))\n"
        )
        res = run_python("-c", script)
        assert res.returncode == 0, res.stderr
        names, loaded = json.loads(res.stdout.splitlines()[-1])
        assert {"moptrans.sfg", "moptrans.calibrate", "moptrans.cli"} <= set(names)
        assert loaded == []

    # runs `main(argv)` in a fresh interpreter and prints the exit code and
    # the scipy modules loaded by then
    SCIPY_PROBE = (
        "import json, sys\n"
        "from moptrans.cli import main\n"
        "code = main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )

    def probe(self, argv):
        res = run_python("-c", self.SCIPY_PROBE, json.dumps(list(map(str, argv))))
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout.splitlines()[-1])

    def test_spectrum_loads_no_scipy(self, tmp_path):
        out = tmp_path / "spec.csv"
        code, scipy_modules = self.probe(["spectrum", "--config", PAPER_CONFIG_FILE, "--out", out])
        assert code == 0 and out.exists()
        assert scipy_modules == []

    def test_cli_import_leaves_calibrate_to_the_fit_verb(self):
        res = run_python("-c", "import sys, moptrans.cli; print('moptrans.calibrate' in sys.modules)")
        assert res.returncode == 0, res.stderr
        assert res.stdout.split()[-1] == "False"

    def test_cli_import_leaves_timedomain_to_the_pulse_verb(self):
        res = run_python("-c", "import sys, moptrans.cli; print('moptrans.timedomain' in sys.modules)")
        assert res.returncode == 0, res.stderr
        assert res.stdout.split()[-1] == "False"

    def test_fit_loads_no_scipy(self, tmp_path):
        """The fits run on calibrate's own solver: no fit kind loads scipy."""
        cfg = write_config(tmp_path, PAPER_CONFIG)
        for kind in ("s11", "step", "power"):
            out = tmp_path / f"{kind}.json"
            code, scipy_modules = self.probe(["fit", kind, "--config", cfg, "--data",
                                              write_fit_data(tmp_path, kind), "--out", out])
            assert code == 0
            assert json.loads(out.read_text())["converged"]
            assert scipy_modules == [], kind
