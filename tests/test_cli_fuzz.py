"""Property test of the CLI contract: every input ends in a documented exit
code, with no traceback and no warning, and a non-zero exit prints exactly
one stderr line.

Five input surfaces: preset values (`amplitude`, `rho0`,
`stress_amplitude` anywhere in [0, 1e308]) for `run` at n=16 with a tiny
`t_end`, the domain length `L` over [1e-300, 1e300] on a log scale at
n in {8, 16}, `picard`'s flags (`--t0` up to 1e-2, `--nodes` up to 17,
`--max-iter` up to 5, `--tol` edge values, each possibly out of range,
with and without `--compare`) at n=16, mutated `timeseries.csv` bytes for
`bounds --traj`, and mutated snapshot bytes for `bounds` with a
`snapshot:` preset.  The examples are derandomized with a fixed count, so
every run of the suite checks the same inputs; inputs found so far are
pinned as explicit cases on top of them.
"""

import contextlib
import io
import math
import struct
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oldb2d.cli import main
from oldb2d.config import PRESETS, build_initial, parse_config
from oldb2d.snapshots import write_snapshot
from oldb2d.spectral import make_grid

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


def preset_run(work, preset, values):
    """`run` at n=16 to t_end=0.001 with the preset values `values`.  With
    dt_min=1e-6 a run takes at most 1000 steps: a draw whose CFL step is
    smaller ends in `dt_underflow` (exit 1) instead of stepping for
    minutes."""
    cfg = work / "run.cfg"
    cfg.write_text(f"n=16\npreset={preset}\nt_end=0.001\ndt_min=1e-6\n"
                   + "".join(f"{key}={value!r}\n" for key, value in values.items()))
    return call(["run", "--config", str(cfg), "--out-dir", str(work / "out")])


@FUZZ
@given(preset=st.sampled_from(PRESETS),
       values=st.fixed_dictionaries({
           key: st.floats(min_value=0.0, max_value=1e308)
           for key in ("amplitude", "rho0", "stress_amplitude")}))
def test_run_with_extreme_preset_values(work, preset, values):
    assert_contract(*preset_run(work, preset, values))


def test_run_with_a_cfl_limited_preset_value(work):
    """`taylor_green` at amplitude 1e8 has a CFL step of about 2e-9 s: with
    the default dt_min its 0.001 s took 5.1e5 steps and about 9 minutes;
    under the fuzzer's dt_min it exits 1 at once."""
    code, err, caught = preset_run(work, "taylor_green", {"amplitude": 1e8})
    assert_contract(code, err, caught)
    assert code == 1 and "[dt_underflow]" in err, err


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


PICARD_CFG = "n=16\npreset=random_admissible\nseed=5\n"
PICARD_OUT_OF_RANGE = {"t0": [0.0, -1.0, math.nan, math.inf], "nodes": [-1, 0, 3],
                       "max-iter": [-1, 0], "tol": [0.0, -1.0, math.nan, math.inf]}


@st.composite
def picard_flags(draw):
    """`picard`'s numeric flags in range, edge values included, with at
    most one of them then replaced by an out-of-range value."""
    flags = {
        "t0": draw(st.floats(min_value=0.0, max_value=1e-2, exclude_min=True)),
        "nodes": draw(st.integers(4, 17)),
        "max-iter": draw(st.integers(1, 5)),
        "tol": draw(st.sampled_from([5e-324, 1e-300, 1.0, 1e300]) | st.floats(1e-16, 1.0)),
    }
    bad = draw(st.none() | st.sampled_from(sorted(PICARD_OUT_OF_RANGE)))
    if bad:
        flags[bad] = draw(st.sampled_from(PICARD_OUT_OF_RANGE[bad]))
    return flags


def picard_call(work, flags, compare):
    """`picard` at n=16 on `random_admissible` at its default amplitude:
    with t0 <= 1e-2, `--compare` steps at dt_max = t0/50, so no draw starts
    a long stepper run."""
    cfg = work / "picard.cfg"
    cfg.write_text(PICARD_CFG)
    return call(["picard", "--config", str(cfg)]
                + [f"--{flag}={value!r}" for flag, value in flags.items()]
                + ["--compare"] * compare)


@FUZZ
@given(flags=picard_flags(), compare=st.booleans())
def test_picard_with_extreme_flags(work, flags, compare):
    assert_contract(*picard_call(work, flags, compare))


def test_picard_with_a_subnormal_horizon(work):
    """t0 = 5e-324 rounds every node spacing but the last to zero, so the
    nodes are not the uniform grid the quadrature sums over; the config is
    refused."""
    flags = {"t0": 5e-324, "nodes": 4, "max-iter": 1, "tol": 5e-324}
    code, err, caught = picard_call(work, flags, compare=False)
    assert_contract(code, err, caught)
    assert code == 2 and "separate the time nodes" in err, err


@st.composite
def edits(draw):
    """A few byte edits (replace, delete or insert at a position taken
    modulo the file length), then an optional truncation."""
    chunk = st.one_of(st.binary(max_size=3),
                      st.text(alphabet="0123456789.,+-e\n inaf", max_size=3).map(str.encode))
    return (draw(st.lists(st.tuples(st.integers(0, 10 ** 6), chunk), min_size=1, max_size=4)),
            draw(st.none() | st.integers(0, 10 ** 6)))


def mutated(blob, mutation):
    """`blob` after the byte edits and the truncation of `mutation`."""
    changes, cut = mutation
    for position, chunk in changes:
        i = position % len(blob)
        blob = blob[:i] + chunk + blob[i + 1:]
    if cut is not None:
        blob = blob[:cut % (len(blob) + 1)]
    return blob


@FUZZ
@given(mutation=edits())
def test_bounds_with_mutated_timeseries(work, timeseries, mutation):
    cfg, blob = timeseries
    traj = work / "mutated.csv"
    traj.write_bytes(mutated(blob, mutation))
    assert_contract(*call(["bounds", "--config", str(cfg), "--traj", str(traj)]))


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("line,code", [
    ("amplitude=1e-160", 0), ("L=1e200", 2),
    ("constant_c=0", 0), ("constant_c=1e308", 0), ("init_kmax=100000", 0),
    ("t_end=1e-300", 0), ("dt_max=1e300", 0), ("init_kmax=0", 2),
    ("n=32", 2), ("foo=1", 2), ("snapshot_times=,", 2), ("cfl=1e-300", 1),
    ("cfl=1", 0), ("seed=99999999999999999999999", 0),
    ("output_every=99999999999999999999999999", 0), ("dt_min=1e-300", 0),
    pytest.param("c_ceiling=1e-300", {"taylor_green": 0}, id="c_ceiling=1e-300-2"),
])
def test_run_with_pinned_inputs(work, preset, line, code):
    """Inputs the fuzzer drew on earlier versions, and edge values of the
    config keys it does not draw, pinned so that they stay checked when the
    drawn sequence moves.  A `t_end` line replaces the default one, and an
    `n` line duplicates the config's own.  A tiny `c_ceiling` is below the
    initial stress of every preset but `taylor_green`, whose stress is
    zero: the one code that depends on the preset."""
    if isinstance(code, dict):
        code = code.get(preset, 2)
    t_end = "" if line.startswith("t_end=") else "t_end=0.001\n"
    cfg = work / "pinned.cfg"
    cfg.write_text(f"n=16\npreset={preset}\n{t_end}{line}\n")
    result = call(["run", "--config", str(cfg), "--out-dir", str(work / "pinned")])
    assert_contract(*result)
    assert result[0] == code


SNAP_CFG = "n=8\npreset=random_admissible\nseed=3\n"
NAME_OFFSET = struct.calcsize("<8sIIddI") + 1   # the first field name's first byte
LENGTH_OFFSET = struct.calcsize("<8sII")         # the header's L


@pytest.fixture(scope="module")
def snapshot(work):
    """The bytes of a valid n=8 snapshot."""
    cfg = parse_config(SNAP_CFG)
    path = work / "valid.snap"
    write_snapshot(build_initial(cfg, make_grid(cfg.n, cfg.length)), path)
    return path.read_bytes()


def bounds_on_snapshot(work, blob):
    """`bounds` on a config whose preset is a snapshot of bytes `blob`: it
    reads and builds the state, and never steps it."""
    snap = work / "mutated.snap"
    snap.write_bytes(blob)
    cfg = work / "snap.cfg"
    cfg.write_text(f"n=8\npreset=snapshot:{snap}\n")
    return call(["bounds", "--config", str(cfg)])


@st.composite
def snapshot_edits(draw):
    """Byte edits as in `edits`, at positions drawn over the whole file or
    inside its header and first field name, where a chunk may also be a
    special double; then an optional truncation."""
    position = st.integers(0, 10 ** 6) | st.integers(0, NAME_OFFSET + 8)
    doubles = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 0.0, 5e-324])
    chunk = st.binary(max_size=3) | doubles.map(lambda v: struct.pack("<d", v))
    return (draw(st.lists(st.tuples(position, chunk), min_size=1, max_size=4)),
            draw(st.none() | st.integers(0, 10 ** 6)))


@FUZZ
@given(mutation=snapshot_edits())
def test_bounds_with_mutated_snapshot(work, snapshot, mutation):
    assert_contract(*bounds_on_snapshot(work, mutated(snapshot, mutation)))


@pytest.mark.parametrize("offset,chunk", [
    (NAME_OFFSET, b"\xff"),                                 # a name byte beyond ASCII
    (LENGTH_OFFSET, struct.pack("<d", math.nan)),           # a nan L
], ids=["name_byte_0xff", "nan_length"])
def test_bounds_with_pinned_snapshot_edits(work, snapshot, offset, chunk):
    blob = snapshot[:offset] + chunk + snapshot[offset + len(chunk):]
    result = bounds_on_snapshot(work, blob)
    assert_contract(*result)
    assert result[0] == 2
