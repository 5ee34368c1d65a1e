import os
import re
import struct
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oldb2d import make_grid
from oldb2d.cli import EXIT_OUTPUT, main
from oldb2d.config import PRESETS, ConfigError, build_initial, parse_config
from oldb2d.diagnostics import (
    COLUMNS,
    _positivity,
    make_record,
    packed_energy,
    positivity_report,
)
from oldb2d.dynamics import pack_state
from oldb2d.fields import PLANES
from oldb2d.snapshots import (
    SnapshotFormatError,
    append_timeseries,
    read_snapshot,
    read_timeseries,
    write_snapshot,
)
from oldb2d.spectral import irfft2

from conftest import run_collected, state_of

TWO_PI = 2.0 * np.pi

MINIMAL = (
    "n=64\nL=6.283185307\nnu=0.01\nkappa=0.01\nk=1\nbigK=1\npreset=equilibrium\n"
)


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.n == 64
        assert cfg.params.nu == 0.01
        assert cfg.preset == "equilibrium"
        # documented defaults fill the rest
        assert cfg.control.cfl == 0.5
        assert cfg.control.dt_max == 1e-2
        assert cfg.control.output_every == 1
        assert cfg.monitors.positivity_tol == 1e-8
        assert cfg.constant_c == 1.0
        assert cfg.seed == 0

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\nn=32  # inline\npreset=taylor_green\n")
        assert cfg.n == 32
        assert cfg.preset == "taylor_green"

    def test_negative_kappa_names_invariant(self):
        with pytest.raises(ConfigError, match="kappa"):
            parse_config("kappa=-1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("n=32\nn=64\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("frobnicate=1\n")

    def test_unreadable_value(self):
        with pytest.raises(ConfigError, match="invalid value"):
            parse_config("nu=fast\n")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config("preset=mystery\n")

    def test_snapshot_preset_accepted(self):
        cfg = parse_config("preset=snapshot:/tmp/state.snap\n")
        assert cfg.preset.startswith("snapshot:")


class TestBuildInitial:
    def test_equilibrium_gamma(self):
        cfg = parse_config("n=32\npreset=equilibrium\nrho0=1.0\n")
        grid = make_grid(32, cfg.length)
        state = build_initial(cfg, grid)
        rep = positivity_report(state, tol=1e-10)
        assert rep.min_gamma == pytest.approx(2.0, abs=1e-12)
        assert rep.passed

    def test_seeded_determinism(self):
        cfg = parse_config("n=32\npreset=random_admissible\nseed=42\n")
        grid = make_grid(32, cfg.length)
        s1 = build_initial(cfg, grid)
        s2 = build_initial(cfg, grid)
        assert np.array_equal(s1.planes, s2.planes)

    def test_random_admissible_strictly_positive(self):
        for seed in (1, 2, 3):
            cfg = parse_config(f"n=64\npreset=random_admissible\nseed={seed}\n")
            grid = make_grid(64, cfg.length)
            state = build_initial(cfg, grid)
            assert positivity_report(state, 0.0).min_gamma / 2 > 0.0
            state.validate()

    def test_taylor_green_admissible(self):
        cfg = parse_config("n=32\npreset=taylor_green\n")
        state = build_initial(cfg, make_grid(32, cfg.length))
        assert positivity_report(state, tol=1e-10).passed

    def test_peak_memory_of_random_admissible(self):
        """Peak traced allocation of building `random_admissible` data at
        n=128, in packed-state units (6 half-spectrum planes; the six real
        planes are about one unit too).  The state is built in its own
        planes, and each plane's dealiased spectrum is transformed back into
        it, so the build peaks at 1.99 units: the planes, one plane's
        spectra and a few (n, n) temporaries.  A first build runs untraced,
        as its lazy import of `numpy.random` would count."""
        cfg = parse_config("n=128\npreset=random_admissible\n")
        grid = make_grid(128, cfg.length)
        unit = 6 * 128 * 65 * 16
        build_initial(cfg, grid)
        tracemalloc.start()
        try:
            state = build_initial(cfg, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.planes.shape == (6, 128, 128)
        assert peak <= 3.0 * unit, peak / unit


class TestSnapshots:
    def _state(self):
        cfg = parse_config("n=32\npreset=random_admissible\nseed=7\n")
        grid = make_grid(32, cfg.length)
        return build_initial(cfg, grid), grid

    def test_bitwise_round_trip(self, tmp_path):
        state, grid = self._state()
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        back = read_snapshot(path, grid)
        assert back.time == state.time
        assert np.array_equal(back.planes, state.planes)

    def test_blocks_are_the_planes_in_order(self, tmp_path):
        state, grid = self._state()
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        blob = path.read_bytes()
        header = struct.Struct("<8sIIddI")
        magic, version, n, length, time, count = header.unpack_from(blob, 0)
        assert (magic, version, n, length, time, count) == (
            b"OLDB2D01", 1, grid.n, grid.length, state.time, len(PLANES))
        offset, names, data = header.size, [], b""
        for _ in range(count):
            size = blob[offset]
            names.append(blob[offset + 1:offset + 1 + size].decode("ascii"))
            offset += 1 + size
            data += blob[offset:offset + 8 * n * n]
            offset += 8 * n * n
        assert offset == len(blob)
        assert tuple(names) == PLANES
        assert data == state.planes.tobytes()

    def test_truncated_file(self, tmp_path):
        state, grid = self._state()
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            read_snapshot(path, grid)

    def test_wrong_magic(self, tmp_path):
        state, grid = self._state()
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot(path, grid)

    def test_grid_mismatch(self, tmp_path):
        state, _ = self._state()
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        other = make_grid(64, TWO_PI)
        with pytest.raises(SnapshotFormatError, match="grid mismatch"):
            read_snapshot(path, other)

    @staticmethod
    def _edited(tmp_path, state, offset, chunk):
        """A snapshot of `state` with the bytes at `offset` replaced."""
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:offset] + chunk + blob[offset + len(chunk):])
        return path

    def test_non_ascii_field_name(self, tmp_path, capsys):
        state, grid = self._state()
        name_offset = struct.calcsize("<8sIIddI") + 1
        path = self._edited(tmp_path, state, name_offset, b"\xff")
        with pytest.raises(SnapshotFormatError, match="unexpected field"):
            read_snapshot(path, grid)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"n=32\npreset=snapshot:{path}\n")
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_nan_length(self, tmp_path):
        state, grid = self._state()
        path = self._edited(tmp_path, state, struct.calcsize("<8sII"),
                            struct.pack("<d", float("nan")))
        with pytest.raises(SnapshotFormatError, match="grid mismatch"):
            read_snapshot(path, grid)

    @pytest.mark.parametrize("time", [float("inf"), -float("inf"), float("nan")])
    def test_nonfinite_time(self, tmp_path, time):
        state, grid = self._state()
        path = self._edited(tmp_path, state, struct.calcsize("<8sIId"),
                            struct.pack("<d", time))
        with pytest.raises(SnapshotFormatError, match="non-finite time"):
            read_snapshot(path, grid)

    def test_snapshot_preset_round_trip(self, tmp_path):
        state, grid = self._state()
        path = tmp_path / "state.snap"
        write_snapshot(state, path)
        cfg = parse_config(f"n=32\npreset=snapshot:{path}\n")
        back = build_initial(cfg, grid)
        assert np.array_equal(back.planes[4], state.planes[4])


class TestTimeseries:
    def _record(self):
        cfg = parse_config("n=16\npreset=equilibrium\n")
        grid = make_grid(16, cfg.length)
        sh = pack_state(build_initial(cfg, grid))
        reals = irfft2(sh, grid.n)
        return make_record(grid, 0.0, sh, reals, _positivity(reals, 0.0),
                           packed_energy(grid, cfg.params, sh, reals))

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "series.csv"
        rec = self._record()
        append_timeseries(rec, path)
        append_timeseries(rec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == 3
        assert not lines[1].startswith("time")

    def test_round_trip_precision(self, tmp_path):
        path = tmp_path / "series.csv"
        rec = self._record()
        append_timeseries(rec, path)
        series = read_timeseries(path)
        assert series["energy"][0] == pytest.approx(rec.energy, rel=1e-16)
        assert series["c_max"][0] == rec.c_max

    def test_row_count_matches_cadence(self, tmp_path):
        cfg = parse_config(
            "n=16\npreset=equilibrium\ndt_min=0.01\ndt_max=0.01\nt_end=0.1\n"
            "output_every=3\n"
        )
        grid = make_grid(16, cfg.length)
        traj = run_collected(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        path = tmp_path / "series.csv"
        for rec in traj.records:
            append_timeseries(rec, path)
        lines = path.read_text().splitlines()
        # 10 steps at every third step, plus the initial row and the header.
        assert len(lines) == 1 + 10 // 3 + 1


class TestCliMain:
    def _write_cfg(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_run_equilibrium_exit_zero(self, tmp_path, capsys):
        cfg_path = self._write_cfg(
            tmp_path,
            "n=16\npreset=equilibrium\ndt_max=1e-3\nt_end=0.02\noutput_every=5\n",
        )
        out_dir = str(tmp_path / "out")
        assert main(["run", "--config", cfg_path, "--out-dir", out_dir]) == 0
        series = read_timeseries(os.path.join(out_dir, "timeseries.csv"))
        assert len(series["time"]) == 5  # initial + 20 steps / 5
        # constant diagnostics except time
        for key in ("energy", "sigma_L1", "min_gamma"):
            assert np.ptp(series[key]) <= 1e-12 * max(1.0, abs(series[key][0]))
        assert os.path.exists(os.path.join(out_dir, "final_state.snap"))

    def test_run_determinism_bit_identical(self, tmp_path):
        cfg_path = self._write_cfg(
            tmp_path,
            "n=16\npreset=random_admissible\nseed=11\ndt_max=1e-2\nt_end=0.05\n",
        )
        blobs = []
        for name in ("a", "b"):
            out_dir = str(tmp_path / name)
            assert main(["run", "--config", cfg_path, "--out-dir", out_dir]) == 0
            with open(os.path.join(out_dir, "timeseries.csv"), "rb") as fh:
                csv_blob = fh.read()
            with open(os.path.join(out_dir, "final_state.snap"), "rb") as fh:
                snap_blob = fh.read()
            blobs.append((csv_blob, snap_blob))
        assert blobs[0] == blobs[1]

    def test_config_error_exit_two(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, "kappa=-1\n")
        assert main(["run", "--config", cfg_path]) == 2

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_overflow_exit_three(self, tmp_path, capsys):
        """max c rises from 2.465 at t=0 through the ceiling 2.5 at t=0.031:
        the `overflow` monitor's exit 3.  A ceiling below the initial max c
        is a config error instead (`test_c_ceiling_below_the_initial_data`)."""
        cfg_path = self._write_cfg(
            tmp_path, "n=16\npreset=random_admissible\namplitude=3\nc_ceiling=2.5\n"
                      "dt_max=1e-3\nt_end=0.05\n"
        )
        assert main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("monitor violation: [overflow] t=0.031: ")

    # `test_overflow_exit_three`'s config, a record at every step.
    LATE_OVERFLOW = ("n=16\npreset=random_admissible\namplitude=3\nc_ceiling=2.5\n"
                     "dt_max=1e-3\noutput_every=1\n")

    def test_failed_run_leaves_what_it_accepted(self, tmp_path, capsys):
        """A run stopped by a monitor leaves a row for every state accepted
        before it, the snapshots those states gave, and no final state."""
        cfg_path = self._write_cfg(tmp_path, self.LATE_OVERFLOW
                                   + "t_end=0.05\nsnapshot_times=0.02\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--config", cfg_path, "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("monitor violation: [overflow] t=0.031: ")
        assert err.count("\n") == 1
        series_path = str(out_dir / "timeseries.csv")
        times = read_timeseries(series_path)["time"]
        assert len(times) == 31
        assert times[0] == 0.0 and times[-1] == pytest.approx(0.03, abs=1e-12)
        assert main(["bounds", "--config", cfg_path, "--traj", series_path]) == 0
        assert "energy budget gate:" in capsys.readouterr().out
        snap = read_snapshot(out_dir / "snapshot_t0.02.snap", make_grid(16, TWO_PI))
        assert snap.time == pytest.approx(0.02, abs=1e-12)
        assert not (out_dir / "final_state.snap").exists()

    def test_failed_run_removes_an_earlier_final_state(self, tmp_path):
        """A run that fails into the directory of an earlier run that
        succeeded does not leave that run's final state beside its own
        rows."""
        out_dir = tmp_path / "o"
        for t_end, code in (("0.02", 0), ("0.05", 3)):
            cfg_path = self._write_cfg(tmp_path, self.LATE_OVERFLOW + f"t_end={t_end}\n")
            assert main(["run", "--config", cfg_path, "--out-dir", str(out_dir)]) == code
        assert not (out_dir / "final_state.snap").exists()
        assert read_timeseries(out_dir / "timeseries.csv")["time"][-1] == pytest.approx(
            0.03, abs=1e-12)

    def test_monitor_violation_exit_one(self, tmp_path):
        cfg_path = self._write_cfg(
            tmp_path,
            "n=16\npreset=random_admissible\namplitude=100.0\ndt_min=0.1\n"
            "dt_max=0.2\nt_end=1.0\n",
        )
        assert main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 1

    def test_bounds_exit_zero(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, "n=16\npreset=equilibrium\n")
        assert main(["bounds", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        for name in ("R0", "R1", "R2", "R3", "R4", "R5", "B"):
            assert name in out

    @staticmethod
    def _row_lines(out):
        """The R0 gate line and the R1..R5 ratio lines of an output."""
        return [line for line in out.splitlines()
                if re.match(r"energy budget gate: |R[1-5] ratio: ", line)]

    def _bounds_reprints_run_rows(self, tmp_path, capsys, text):
        """`bounds --traj` on a run's CSV prints the run's six row lines,
        string for string: the CSV's 17 digits round-trip every double."""
        cfg_path = self._write_cfg(tmp_path, text)
        out_dir = str(tmp_path / "out")
        assert main(["run", "--config", cfg_path, "--out-dir", out_dir]) == 0
        run_rows = self._row_lines(capsys.readouterr().out)
        assert [line.split()[0] for line in run_rows] == [
            "energy", "R1", "R2", "R3", "R4", "R5"]
        assert not any("nan" in line for line in run_rows)
        code = main(["bounds", "--config", cfg_path,
                     "--traj", os.path.join(out_dir, "timeseries.csv")])
        assert code == 0
        assert self._row_lines(capsys.readouterr().out) == run_rows
        return run_rows

    def test_bounds_with_trajectory(self, tmp_path, capsys):
        self._bounds_reprints_run_rows(
            tmp_path, capsys,
            "n=16\npreset=random_admissible\namplitude=1.0\nseed=5\n"
            "dt_max=1e-3\nt_end=0.02\noutput_every=2\n")

    def test_bounds_with_taylor_green_trajectory(self, tmp_path, capsys):
        """Zero stress and density: R1 is an exact 0, not an overflowed
        exponential times 0 (nan)."""
        rows = self._bounds_reprints_run_rows(
            tmp_path, capsys, "n=16\npreset=taylor_green\nt_end=0.05\n")
        assert rows[1] == "R1 ratio: 0.000e+00 (observed 0, R1 0)"

    def test_old_thirteen_column_timeseries_exits_config(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, "n=16\npreset=equilibrium\nt_end=0.02\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "timeseries.csv").read_text().splitlines()
        traj = tmp_path / "old.csv"
        traj.write_text("".join(",".join(line.split(",")[:13]) + "\n" for line in lines))
        capsys.readouterr()
        code = main(["bounds", "--config", cfg_path, "--traj", str(traj)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: unexpected time-series header")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_bounds_zero_kappa_overflows(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, "n=16\npreset=equilibrium\nkappa=0\n")
        assert main(["bounds", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "[overflowed]" in out
        r0 = next(line for line in out.splitlines() if line.strip().startswith("R0"))
        assert "[overflowed]" not in r0

    def test_run_zero_kappa(self, tmp_path, capsys):
        """A kappa = 0 run passes the R0 gate; every bound past R0 divides by
        kappa, so R1..R5 are +inf.  The determinant law that holds at
        kappa = 0 is measured by `check` (`dynamics.determinant_order`)."""
        cfg_path = self._write_cfg(
            tmp_path,
            "n=16\npreset=random_admissible\nseed=2\nkappa=0\n"
            "dt_max=1e-3\nt_end=0.01\n",
        )
        out_dir = str(tmp_path / "out")
        assert main(["run", "--config", cfg_path, "--out-dir", out_dir]) == 0
        rows = self._row_lines(capsys.readouterr().out)
        assert re.search(r"energy budget gate: .* -> PASS", rows[0])
        assert all(re.search(r"R[1-5] inf\)$", row) for row in rows[1:])
        assert len(read_timeseries(os.path.join(out_dir, "timeseries.csv"))["time"]) == 11

    def test_bounds_with_a_one_row_trajectory(self, tmp_path, capsys):
        """A run that records only its initial state writes a one-row CSV;
        `bounds --traj` gives it the run's verdict, row for row."""
        self._bounds_reprints_run_rows(
            tmp_path, capsys, "n=16\nt_end=0.03\noutput_every=1000000\n")
        lines = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_header_only_trajectory_exits_config(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, "n=16\npreset=equilibrium\n")
        traj = tmp_path / "empty.csv"
        traj.write_text(",".join(COLUMNS) + "\n")
        code = main(["bounds", "--config", cfg_path, "--traj", str(traj)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "config error: time series has no rows\n"

    def test_picard_subcommand(self, tmp_path, capsys):
        cfg_path = self._write_cfg(
            tmp_path,
            "n=16\npreset=random_admissible\namplitude=0.05\n"
            "stress_amplitude=0.05\nseed=3\n",
        )
        code = main(["picard", "--config", cfg_path, "--t0", "0.05",
                     "--nodes", "33", "--compare"])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "agreement" in out

    def test_picard_compare_from_a_later_snapshot(self, tmp_path, capsys):
        """The stepper covers the mild path's duration t0 from the initial
        state's own time: from a snapshot at t = 0.03 every gap stays
        within the `picard.stepper_agreement` bound, as it does from
        t = 0 (3.8e-6); running to the absolute time t0 gave 1.6e-1."""
        cfg = parse_config("n=16\npreset=random_admissible\namplitude=0.05\n"
                           "stress_amplitude=0.05\nseed=5\n")
        grid = make_grid(16, cfg.length)
        snap = tmp_path / "later.snap"
        write_snapshot(replace(build_initial(cfg, grid), time=0.03), snap)
        cfg_path = self._write_cfg(tmp_path, f"n=16\npreset=snapshot:{snap}\n")
        assert main(["picard", "--config", cfg_path, "--t0", "0.05", "--nodes", "17",
                     "--compare"]) == 0
        out = capsys.readouterr().out
        gaps = re.findall(r"^ +(u|a|b|c|rho): (\S+)$", out, re.MULTILINE)
        assert [name for name, _ in gaps] == ["u", "a", "b", "c", "rho"]
        assert all(float(gap) <= 1e-4 for _, gap in gaps), gaps

    @pytest.mark.parametrize("time,t_end", [(-1e300, 1.0), (1e17, 2e17)])
    def test_step_that_cannot_advance_t_exits_one(self, tmp_path, time, t_end):
        """At |t| this large t + dt == t, and `run` looped until killed; it
        runs in a child process, so that such a loop fails on its timeout."""
        import subprocess

        import oldb2d

        grid = make_grid(16, TWO_PI)
        snap = tmp_path / "far.snap"
        write_snapshot(state_of(grid, c=2.0, rho=1.0, time=time), snap)
        cfg_path = self._write_cfg(tmp_path, f"n=16\npreset=snapshot:{snap}\n"
                                             f"t_end={t_end!r}\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oldb2d.__file__)))
        done = subprocess.run([sys.executable, "-m", "oldb2d.cli", "run", "--config",
                               cfg_path, "--out-dir", str(tmp_path / "o")],
                              env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 1
        assert done.stderr.startswith("monitor violation: [dt_underflow]")
        assert done.stderr.count("\n") == 1

    def test_restart_at_a_negative_time(self, tmp_path, capsys):
        """A `snapshot:` restart may run between negative times: `run` needs
        only a t_end after the initial time, and its ledger's horizon is the
        run's duration, which `bounds` shares."""
        grid = make_grid(16, TWO_PI)
        snap = tmp_path / "early.snap"
        write_snapshot(state_of(grid, c=2.0, rho=1.0, time=-1.0), snap)
        cfg_path = self._write_cfg(tmp_path, f"n=16\npreset=snapshot:{snap}\nt_end=-0.5\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--config", cfg_path, "--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "run complete: t=-0.5," in out
        assert main(["bounds", "--config", cfg_path,
                     "--traj", str(out_dir / "timeseries.csv")]) == 0
        bounds = capsys.readouterr().out
        assert "(T=0.5," in bounds
        rows = re.compile(r"^(energy budget gate:|R[1-5] ratio).*$", re.MULTILINE)
        assert rows.findall(bounds) == rows.findall(out)
        assert len(rows.findall(out)) == 6

    def test_picard_divergence_exit_one(self, tmp_path):
        cfg_path = self._write_cfg(
            tmp_path,
            "n=16\npreset=random_admissible\namplitude=3.0\nstress_amplitude=0.4\n"
            "seed=3\n",
        )
        assert main(["picard", "--config", cfg_path, "--t0", "50.0",
                     "--nodes", "33", "--max-iter", "10"]) == 1

    def test_unknown_subcommand_exit_config(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv,message", [
        (["run"], "the following arguments are required: --config"),
        (["check", "--config", "run.cfg"], "unrecognized arguments: --config run.cfg"),
    ], ids=["run_without_config", "check_with_config"])
    def test_bad_arguments_print_one_line(self, capsys, argv, message):
        """A parser error is a config error: one stderr line, no usage
        block."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        assert main(["check", "-h"]) == 0
        assert "usage: oldb2d check" in capsys.readouterr().out

    @pytest.mark.parametrize("t0", ["1e-12", "1e-20", "1e-100"])
    def test_picard_compare_at_a_tiny_t0(self, tmp_path, capsys, t0):
        """The stepper's dt_min is capped at t0 / 50, as its dt_max is, so
        no t0 makes them cross: a config that sets neither is not an
        error."""
        cfg_path = self._write_cfg(tmp_path, "n=16\npreset=random_admissible\n")
        assert main(["picard", "--config", cfg_path, "--t0", t0, "--nodes", "5",
                     "--compare"]) == 0
        gaps = re.findall(r"^ +(u|a|b|c|rho): (\S+)$", capsys.readouterr().out, re.MULTILINE)
        assert len(gaps) == 5 and all(float(gap) <= 1e-10 for _, gap in gaps), gaps

    def test_picard_one_iteration_prints_no_ratio(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, "n=16\npreset=random_admissible\n")
        assert main(["picard", "--config", cfg_path, "--t0", "0.01", "--nodes", "5",
                     "--max-iter", "1"]) == 1
        assert capsys.readouterr().err == (
            "fixed-point divergence: no convergence in 1 iterations "
            "(one difference, so no contraction ratio); reduce t0\n")

    def test_picard_out_of_iterations_while_contracting(self, tmp_path, capsys):
        """An iteration that contracts but stops at `--max-iter` advises
        more iterations, not a shorter horizon: on CI's n=16 picard config
        two iterations end at a contraction ratio of 0.0721."""
        cfg_path = self._write_cfg(tmp_path, "n=16\npreset=random_admissible\namplitude=0.05\n"
                                             "stress_amplitude=0.05\nseed=5\n")
        assert main(["picard", "--config", cfg_path, "--t0", "0.05", "--nodes", "5",
                     "--max-iter", "2"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"fixed-point divergence: no convergence in 2 iterations "
                            r"\(last contraction ratio 0\.0\d+\); raise max_iter\n", err), err

    @staticmethod
    def _child(argv, **kwargs):
        """`python -m oldb2d.cli argv` in a child process, which fails on
        its timeout instead of hanging the suite."""
        import subprocess

        import oldb2d

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oldb2d.__file__)),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        return subprocess.run([sys.executable, "-m", "oldb2d.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60, **kwargs)

    @pytest.mark.parametrize("t0", ["1e20", "1e50", "1e308"])
    def test_picard_at_a_huge_t0_exits_one(self, tmp_path, t0):
        """An iterate that explodes is caught by the divergence test (a
        non-finite difference, or growth by 1e10) in the first iterations:
        exit 1 with one stderr line and no numpy warning.  A density map
        that sub-stepped by the CFL rule once ran until killed at
        t0 = 1e20, and warned at 1e50 and 1e308."""
        cfg_path = self._write_cfg(tmp_path, "n=16\npreset=random_admissible\n")
        done = self._child(["picard", "--config", cfg_path, "--t0", t0, "--nodes", "5"])
        assert done.returncode == 1
        assert re.fullmatch(r"fixed-point divergence: iteration diverged "
                            r"\(last ratio [^()\n]+\); reduce t0\n", done.stderr), done.stderr

    @pytest.mark.parametrize("command,config_text", [
        (["run", "--out-dir", "o"], "n=200000\n"),
        (["bounds"], "n=200000\n"),
        (["picard", "--t0", "0.01", "--nodes", "10000000"], "n=16\npreset=random_admissible\n"),
    ], ids=["run", "bounds", "picard"])
    def test_refused_allocation_exits_config(self, tmp_path, command, config_text):
        """An array the machine will not allocate (149 GiB of grid tables
        at n=200000, 85.8 GiB of path at 10**7 nodes) is a config error:
        exit 2, one stderr line, no traceback.  The child's address space
        is capped at 2 GiB, so every host refuses it."""
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        cfg_path = self._write_cfg(tmp_path, config_text)
        done = self._child([command[0], "--config", cfg_path, *command[1:]],
                           cwd=tmp_path, preexec_fn=cap)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("config error: Unable to allocate ")
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("config_line,extra_argv,message", [
        ("t_end=inf", (), "t_end"),
        ("snapshot_times=0.1,nan", (), "snapshot_times"),
        ("positivity_tol=nan", (), "positivity_tol"),
        ("c_ceiling=inf", (), "c_ceiling"),
        ("", ("picard", "--t0", "0.05", "--nodes", "2"), "n_time_nodes"),
        ("", ("picard", "--t0", "-1"), "t0"),
        ("", ("picard", "--t0", "inf"), "t0"),
        ("", ("picard", "--t0", "0.05", "--tol", "inf"), "tol"),
    ])
    def test_bad_value_exits_config_without_traceback(self, tmp_path, capsys,
                                                      config_line, extra_argv, message):
        cfg_path = self._write_cfg(tmp_path, f"n=16\npreset=equilibrium\n{config_line}\n")
        command, *flags = extra_argv or ("run", "--out-dir", str(tmp_path / "o"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", cfg_path, *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config_line,message", [
        ("c_ceiling=-1", "c_ceiling must be positive"),
        ("c_ceiling=0", "c_ceiling must be positive"),
        ("positivity_tol=-1\nrho0=0.4", "positivity_tol must be nonnegative"),
        ("rho_tol=-1\nrho0=0.4", "rho_tol must be nonnegative"),
        ("energy_tol=-1", "energy_tol must be nonnegative"),
    ], ids=["negative_c_ceiling", "zero_c_ceiling", "negative_positivity_tol",
            "negative_rho_tol", "negative_energy_tol"])
    def test_bad_monitor_tolerance_exits_config(self, tmp_path, capsys, config_line,
                                                message):
        """A monitor tolerance out of range is a config error, not a
        violation that the first step reports on a valid state."""
        cfg_path = self._write_cfg(
            tmp_path, f"n=16\npreset=equilibrium\nt_end=0.02\n{config_line}\n")
        code = main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_nonfinite_built_state_exits_config(self, tmp_path, capsys):
        # The velocity scale overflows: the built velocity is NaN.
        cfg_path = self._write_cfg(
            tmp_path, "n=16\npreset=random_admissible\namplitude=1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "non-finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config_text,message", [
        ("preset=random_admissible\nseed=-1", "seed"),
        ("preset=equilibrium\nrho0=-1", "rho0"),
        ("preset=taylor_green\nrho0=-1", "rho0"),
        ("preset=random_admissible\nrho0=-1", "rho0"),
        ("preset=random_admissible\nrho0=0", "inadmissible"),
        ("preset=random_admissible\nrho0=1e200", "non-finite"),
        ("preset=taylor_green\namplitude=1e308", "too large"),
        ("preset=equilibrium\nt_end=0.01\nsnapshot_times=-1,5", "snapshot_times entry -1"),
        ("preset=equilibrium\nt_end=0.01\nsnapshot_times=0", "snapshot_times entry 0"),
        ("preset=equilibrium\nt_end=0.01\nsnapshot_times=0.005,5", "snapshot_times entry 5"),
    ], ids=["negative_seed", "negative_rho0_equilibrium", "negative_rho0_taylor_green",
            "negative_rho0_random", "zero_rho0_random", "overflowing_rho0_random",
            "overflowing_spectrum", "snapshot_before_start", "snapshot_at_start",
            "snapshot_after_end"])
    def test_bad_initial_data_exits_config(self, tmp_path, capsys, config_text, message):
        cfg_path = self._write_cfg(tmp_path, f"n=16\n{config_text}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["-1", "-1e-300"])
    @pytest.mark.parametrize("command", ["run", "bounds"])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_negative_constant_c_exits_config(self, tmp_path, capsys, preset, command,
                                              value):
        """A negative generic constant is refused before any state is
        built: the ledger's fractional powers of it are not real, and its
        R1..R5 bounds would be negative."""
        cfg_path = self._write_cfg(
            tmp_path, f"n=16\npreset={preset}\nt_end=0.001\nconstant_c={value}\n")
        flags = ["--out-dir", str(tmp_path / "o")] if command == "run" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", cfg_path, *flags])
        assert code == 2
        assert capsys.readouterr().err == "config error: constant_c must be non-negative\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [
        ["run", "--out-dir", "o"], ["picard", "--t0", "0.01", "--nodes", "5", "--compare"],
        ["bounds"],
    ], ids=["run", "picard_compare", "bounds"])
    @pytest.mark.parametrize("preset,ceiling", [
        ("equilibrium", "1e-300"), ("equilibrium", "1.99"),
        ("random_admissible", "1e-300"), ("random_admissible", "2.4"),
        ("taylor_green", "1e-300"),
    ])
    def test_c_ceiling_below_the_initial_data(self, tmp_path, capsys, monkeypatch, preset,
                                              ceiling, command):
        """An initial max c above `c_ceiling` is a config error whose one
        line names both values: the `overflow` monitor stopped such a run at
        its first step (exit 3), with nothing overflowed.  Taylor-Green's
        stress is zero, so no positive ceiling is below it."""
        text = f"n=16\npreset={preset}\nt_end=0.001\nc_ceiling={ceiling}\n"
        cfg = parse_config(text)
        max_c = float(build_initial(cfg, make_grid(cfg.n, cfg.length)).planes[4].max())
        monkeypatch.chdir(tmp_path)
        cfg_path = self._write_cfg(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command[0], "--config", cfg_path, *command[1:]])
        err = capsys.readouterr().err
        if max_c > float(ceiling):
            assert code == 2
            assert err == (f"config error: the initial max c {max_c!r} exceeds "
                           f"c_ceiling {float(ceiling)!r}\n")
            assert not (tmp_path / "o").exists()
        else:
            assert preset == "taylor_green" and max_c == 0.0
            assert (code, err) == (0, "")

    @pytest.mark.parametrize("config_text,code,message", [
        ("preset=taylor_green\namplitude=1e80", 1, None),
        ("preset=taylor_green\namplitude=1e100", 1, None),
        ("preset=taylor_green\namplitude=1e200", 2, "squares"),
        ("preset=equilibrium\nrho0=1e150", 2, "exceeds c_ceiling"),
        ("preset=equilibrium\nrho0=1e150\nc_ceiling=1e300", 0, None),
        ("preset=equilibrium\nrho0=1e200", 2, "squares"),
    ], ids=["tg_1e80", "tg_1e100", "tg_1e200", "equilibrium_1e150",
            "equilibrium_1e150_ceiling_1e300", "equilibrium_1e200"])
    def test_huge_finite_values_print_one_line(self, tmp_path, capsys, config_text, code,
                                               message):
        """Fourth powers in the norms are formed on scaled values, and a
        state whose squares would overflow is a config error: no
        `RuntimeWarning` precedes the one line.  An initial max c of 2e150
        is above the default `c_ceiling`, a config error; under a higher
        ceiling the same state steps with no warning."""
        cfg_path = self._write_cfg(tmp_path, f"n=16\nt_end=0.001\n{config_text}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert got == code
        assert err.count("\n") == (1 if code else 0) and "Traceback" not in err
        if message:
            assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("length,n", [
        ("1e200", 16), ("1e155", 16), ("1e-200", 16), ("1e-150", 16), ("1e-75", 16),
    ])
    def test_extreme_length_exits_config(self, tmp_path, capsys, length, n):
        """A grid whose area L^2 or largest |k|^2 would overflow the squares
        of its fields is a config error that names L, reached without
        forming the overflowing value: no `OverflowError`, no warning."""
        cfg_path = self._write_cfg(
            tmp_path, f"n={n}\nL={length}\npreset=random_admissible\nt_end=0.001\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert code == 2
        assert err.startswith(f"config error: L={float(length):g} is outside")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("preset", ["taylor_green", "random_admissible"])
    def test_small_length_builds_a_divergence_free_state(self, tmp_path, capsys, preset):
        """At L=1e-10 the built velocity passes the divergence check (it was
        measured against |u| alone, in the wrong unit); the run then ends in
        a documented exit, here the CFL step falling below dt_min."""
        cfg_path = self._write_cfg(tmp_path, f"n=16\nL=1e-10\npreset={preset}\n"
                                             "t_end=0.001\n")
        code = main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("monitor violation: [dt_underflow]")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run_config", "bounds_traj", "snapshot_preset"])
    def test_directory_as_input_exits_config(self, tmp_path, capsys, command):
        folder = tmp_path / "folder"
        folder.mkdir()
        cfg_path = self._write_cfg(tmp_path, "n=16\npreset=equilibrium\nt_end=0.01\n")
        argv = {
            "run_config": ["run", "--config", str(folder), "--out-dir", str(tmp_path / "o")],
            "bounds_traj": ["bounds", "--config", cfg_path, "--traj", str(folder)],
            "snapshot_preset": ["run", "--config", self._write_cfg(
                tmp_path, f"n=16\npreset=snapshot:{folder}\n"), "--out-dir",
                str(tmp_path / "o")],
        }[command]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and str(folder) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _mutate_row(lines, field, value):
        fields = lines[2].split(",")
        fields[field] = value
        return lines[:2] + [",".join(fields)] + lines[3:]

    @pytest.mark.parametrize("defect,message", [
        ("short_row", "3 columns"),
        ("not_a_number", "not a number"),
        ("nan_u_L2", "non-finite"),
        ("times_not_increasing", "strictly increase"),
    ])
    def test_bad_timeseries_exits_config(self, tmp_path, capsys, defect, message):
        cfg_path = self._write_cfg(
            tmp_path, "n=16\npreset=random_admissible\namplitude=1.0\nseed=5\n"
                      "dt_max=1e-3\nt_end=0.005\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "timeseries.csv").read_text().splitlines()
        lines = {
            "short_row": lines[:2] + ["0.1,2,3"] + lines[3:],
            "not_a_number": self._mutate_row(lines, 1, "abc"),
            "nan_u_L2": self._mutate_row(lines, COLUMNS.index("u_L2"), "nan"),
            "times_not_increasing": [lines[0], lines[2], lines[1]] + lines[3:],
        }[defect]
        traj = tmp_path / "bad.csv"
        traj.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["bounds", "--config", cfg_path, "--traj", str(traj)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("u_l2", ["1e3", "1e200"])
    def test_failed_gate_prints_one_line(self, tmp_path, capsys, u_l2):
        """A time series whose energy exceeds R0 fails the gate (exit 1)
        with one stderr line; a square that overflows counts as +inf."""
        cfg_path = self._write_cfg(
            tmp_path, "n=16\npreset=random_admissible\namplitude=1.0\nseed=5\n"
                      "dt_max=1e-3\nt_end=0.005\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "timeseries.csv").read_text().splitlines()
        traj = tmp_path / "big.csv"
        traj.write_text("\n".join(
            self._mutate_row(lines, COLUMNS.index("u_L2"), u_l2)) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bounds", "--config", cfg_path, "--traj", str(traj)])
        captured = capsys.readouterr()
        assert code == 1
        assert "-> FAIL" in captured.out
        assert captured.err.startswith("energy budget gate failed: observed ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("t_end", ["0.01", "0.02"])
    def test_restart_without_a_step_exits_config(self, tmp_path, capsys, t_end):
        first = tmp_path / "first"
        cfg_path = self._write_cfg(tmp_path, "n=16\npreset=equilibrium\nt_end=0.02\n")
        assert main(["run", "--config", cfg_path, "--out-dir", str(first)]) == 0
        capsys.readouterr()
        restart = tmp_path / "restart.cfg"
        restart.write_text(f"n=16\npreset=snapshot:{first / 'final_state.snap'}\n"
                           f"t_end={t_end}\n")
        code = main(["run", "--config", str(restart), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "not after the initial time" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_snapshot_times_inside_the_run_are_written(self, tmp_path):
        cfg_path = self._write_cfg(
            tmp_path, "n=16\npreset=equilibrium\ndt_max=1e-3\nt_end=0.01\n"
                      "snapshot_times=0.005,0.01\n")
        out_dir = tmp_path / "o"
        assert main(["run", "--config", cfg_path, "--out-dir", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.glob("snapshot_*.snap")) == [
            "snapshot_t0.005.snap", "snapshot_t0.01.snap"]

    @pytest.mark.parametrize("n,config_text,requests", [
        # One step of dt_max = 0.01 passes both requests.
        (16, "preset=equilibrium\nt_end=0.05\nsnapshot_times=0.002,0.004\n",
         ("0.002", "0.004")),
        (32, "preset=random_admissible\nt_end=0.02\nsnapshot_times=0.0075\n", ("0.0075",)),
    ], ids=["two_requests_in_one_step", "request_inside_a_step"])
    def test_snapshot_files_are_named_by_the_requested_time(self, tmp_path, n, config_text,
                                                            requests):
        """Each request writes its own file, named by the requested time,
        holding the first state at or past it: the state at t=0.01."""
        cfg_path = self._write_cfg(tmp_path, f"n={n}\n{config_text}")
        out_dir = tmp_path / "o"
        assert main(["run", "--config", cfg_path, "--out-dir", str(out_dir)]) == 0
        names = [f"snapshot_t{t}.snap" for t in requests]
        assert sorted(p.name for p in out_dir.glob("snapshot_*.snap")) == names
        states = [read_snapshot(out_dir / name, make_grid(n, TWO_PI)) for name in names]
        for state in states:
            assert state.time == pytest.approx(0.01, abs=1e-12)
            assert np.array_equal(state.planes, states[0].planes)

    def test_failed_run_removes_an_earlier_snapshot_it_requests(self, tmp_path, capsys):
        """A run that fails before a requested snapshot time does not leave
        an earlier run's snapshot of that name; a snapshot file that it does
        not request is left alone."""
        out_dir = tmp_path / "o"
        text = ("n=16\npreset=random_admissible\namplitude=3\ndt_max=1e-3\nt_end=0.05\n"
                "snapshot_times=0.04\n")
        assert main(["run", "--config", self._write_cfg(tmp_path, text),
                     "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "snapshot_t0.04.snap").exists()
        (out_dir / "snapshot_t0.5.snap").write_bytes(b"kept")
        assert main(["run", "--config", self._write_cfg(tmp_path, text + "c_ceiling=2.5\n"),
                     "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err.startswith("monitor violation: [overflow] t=0.031: ")
        assert not (out_dir / "snapshot_t0.04.snap").exists()
        assert (out_dir / "snapshot_t0.5.snap").read_bytes() == b"kept"

    @pytest.mark.parametrize("command", ["run", "bounds", "picard"])
    @pytest.mark.parametrize("defect,message", [
        ("indefinite_stress", "inadmissible"),
        ("divergent_velocity", "divergence-free"),
    ])
    def test_bad_snapshot_preset_exits_config(self, tmp_path, capsys, command,
                                              defect, message):
        grid = make_grid(16, TWO_PI)
        x, _ = grid.nodes()
        ones = np.ones((16, 16))
        if defect == "indefinite_stress":   # a = c = 1: eigenvalues 3/2, -1/2
            u, a, c = np.zeros((2, 16, 16)), ones, ones
        else:
            u, a, c = np.stack([np.sin(x), 0.0 * x]), 0.0 * ones, 2.0 * ones
        state = state_of(grid, u=u, a=a, c=c, rho=ones)
        snap = tmp_path / "bad.snap"
        write_snapshot(state, snap)
        cfg_path = self._write_cfg(tmp_path, f"n=16\npreset=snapshot:{snap}\n")
        flags = {"run": ("--out-dir", str(tmp_path / "o")), "bounds": (),
                 "picard": ("--t0", "0.05")}[command]
        code = main([command, "--config", cfg_path, *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()


class _ClosedPipe:
    """A text stream whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestOutputErrors:
    """A stdout or stderr that cannot be written is an output error (exit
    4), not a config error, and ends without a traceback."""

    @pytest.mark.parametrize("command", ["run", "bounds"])
    def test_closed_stdout(self, tmp_path, capsys, monkeypatch, command):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n=16\npreset=equilibrium\nt_end=0.01\n")
        flags = ["--out-dir", str(tmp_path / "o")] if command == "run" else []
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main([command, "--config", str(cfg_path), *flags])
        assert code == EXIT_OUTPUT
        assert capsys.readouterr().err == "output error: [Errno 32] Broken pipe\n"

    def test_closed_stderr(self, tmp_path, monkeypatch):
        """A config error whose line cannot be written still ends in a
        code, not an exception."""
        monkeypatch.setattr(sys, "stderr", _ClosedPipe())
        assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == EXIT_OUTPUT

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_console_script_on_a_closed_pipe(self, tmp_path, unbuffered):
        """The `oldb2d` script with stdout on a pipe whose reader is closed:
        one stderr line, no "Exception ignored" from the interpreter's
        flush at exit, whether stdout is buffered or not."""
        import subprocess

        import oldb2d

        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n=16\npreset=equilibrium\n")
        src = os.path.dirname(os.path.dirname(oldb2d.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        script = ("import sys; from oldb2d.cli import console_main; "
                  f"sys.argv = ['oldb2d', 'bounds', '--config', {str(cfg_path)!r}]; "
                  "console_main()")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-c", script], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == EXIT_OUTPUT
        assert done.stderr == "output error: [Errno 32] Broken pipe\n"


class TestHalfSpectrumOnly:
    """The program runs on the rfft2 half spectrum alone: with every
    complex-to-complex 2-D FFT made to raise, the three commands exit 0."""

    @pytest.mark.parametrize("command, flags", [
        ("run", ["--out-dir", "{out}"]),
        ("bounds", []),
        ("picard", ["--t0", "0.05", "--nodes", "9", "--compare"]),
    ])
    def test_no_complex_fft(self, tmp_path, monkeypatch, command, flags):
        def forbidden(*args, **kwargs):
            raise AssertionError("complex-to-complex FFT called")

        monkeypatch.setattr(np.fft, "fft2", forbidden)
        monkeypatch.setattr(np.fft, "ifft2", forbidden)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n=16\npreset=random_admissible\namplitude=0.05\n"
                            "stress_amplitude=0.05\nseed=3\nt_end=0.05\n")
        flags = [flag.format(out=tmp_path / "out") for flag in flags]
        assert main([command, "--config", str(cfg_path), *flags]) == 0


NO_SCIPY_SCRIPT = """
import sys

from oldb2d import cli

cfg, out = sys.argv[1:]
codes = (cli.main(["run", "--config", cfg, "--out-dir", out]),
         cli.main(["picard", "--config", cfg, "--t0", "0.05", "--nodes", "9"]))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(codes, loaded)
"""


def test_commands_import_no_scipy(tmp_path):
    """numpy is the only runtime dependency: a `run` and a `picard` in a
    fresh process leave no scipy module loaded."""
    import subprocess

    import oldb2d

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("n=16\npreset=random_admissible\namplitude=0.05\n"
                        "stress_amplitude=0.05\nseed=3\nt_end=0.01\n")
    src = os.path.dirname(os.path.dirname(oldb2d.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(cfg_path),
                           str(tmp_path / "out")], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "(0, 0) []"
