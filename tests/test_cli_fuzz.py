"""Property test of the CLI contract: every input ends in a documented exit
code, with no traceback and no warning, and a non-zero exit prints exactly
one stderr line.

Three input surfaces: preset values (`amplitude`, `rho0`,
`stress_amplitude` anywhere in [0, 1e308]) for `run` at n=16 with a tiny
`t_end`, the domain length `L` over [1e-300, 1e300] on a log scale at
n in {8, 16}, and mutated `timeseries.csv` bytes for `bounds --traj`.  The
examples are derandomized with a fixed count, so every run of the suite
checks the same inputs.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oldb2d.cli import main
from oldb2d.config import PRESETS

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])
"""A fixed example set: the same inputs on every run, and no example
database written to the checkout."""

RUN_CFG = "n=16\npreset=random_admissible\namplitude=1.0\nseed=5\ndt_max=1e-3\nt_end=0.005\n"


def call(argv):
    """`main(argv)` with its exit code, stderr and any warning it raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


def assert_contract(code, err, caught):
    assert code in (0, 1, 2, 3)
    assert caught == []
    assert "Traceback" not in err
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == ""


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def timeseries(work):
    """The config and `timeseries.csv` bytes of one short run at n=16."""
    cfg = work / "series.cfg"
    cfg.write_text(RUN_CFG)
    out = work / "series"
    assert call(["run", "--config", str(cfg), "--out-dir", str(out)]) == (0, "", [])
    return cfg, (out / "timeseries.csv").read_bytes()


@FUZZ
@given(preset=st.sampled_from(PRESETS),
       values=st.fixed_dictionaries({
           key: st.floats(min_value=0.0, max_value=1e308)
           for key in ("amplitude", "rho0", "stress_amplitude")}))
def test_run_with_extreme_preset_values(work, preset, values):
    cfg = work / "run.cfg"
    cfg.write_text(f"n=16\npreset={preset}\nt_end=0.001\n"
                   + "".join(f"{key}={value!r}\n" for key, value in values.items()))
    assert_contract(*call(["run", "--config", str(cfg), "--out-dir", str(work / "out")]))


@pytest.mark.parametrize("preset", ["taylor_green", "random_admissible"])
@pytest.mark.parametrize("value", [1e-310, 2.2250738585072014e-308])
def test_run_with_subnormal_preset_values(work, preset, value):
    """A velocity whose spectral peak is subnormal: the divergence check of
    the built state divided the complex spectrum by that peak, which
    overflowed and warned."""
    cfg = work / "tiny.cfg"
    cfg.write_text(f"n=16\npreset={preset}\nt_end=0.001\namplitude={value!r}\n"
                   f"rho0={value!r}\nstress_amplitude=0\n")
    result = call(["run", "--config", str(cfg), "--out-dir", str(work / "tiny")])
    assert_contract(*result)
    assert result[0] == 0


@FUZZ
@given(preset=st.sampled_from(PRESETS), n=st.sampled_from([8, 16]),
       length=st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e))
def test_run_with_extreme_lengths(work, preset, n, length):
    cfg = work / "length.cfg"
    cfg.write_text(f"n={n}\nL={length!r}\npreset={preset}\nt_end=0.001\n")
    assert_contract(*call(["run", "--config", str(cfg), "--out-dir", str(work / "out")]))


@st.composite
def edits(draw):
    """A few byte edits (replace, delete or insert at a position taken
    modulo the file length), then an optional truncation."""
    chunk = st.one_of(st.binary(max_size=3),
                      st.text(alphabet="0123456789.,+-e\n inaf", max_size=3).map(str.encode))
    return (draw(st.lists(st.tuples(st.integers(0, 10 ** 6), chunk), min_size=1, max_size=4)),
            draw(st.none() | st.integers(0, 10 ** 6)))


@FUZZ
@given(mutation=edits())
def test_bounds_with_mutated_timeseries(work, timeseries, mutation):
    cfg, blob = timeseries
    changes, cut = mutation
    for position, chunk in changes:
        i = position % len(blob)
        blob = blob[:i] + chunk + blob[i + 1:]
    if cut is not None:
        blob = blob[:cut % (len(blob) + 1)]
    traj = work / "mutated.csv"
    traj.write_bytes(blob)
    assert_contract(*call(["bounds", "--config", str(cfg), "--traj", str(traj)]))
