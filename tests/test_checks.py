import os
import subprocess
import sys

from oldb2d import picard
from oldb2d.checks import run_checks
from oldb2d.cli import main


def test_all_checks_pass_on_small_config():
    results = run_checks()
    failures = [r for r in results if not r.passed]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]
    assert len(results) >= 25


def test_check_command_takes_no_config(capsys):
    assert main(["check"]) == 0
    assert capsys.readouterr().out.endswith("\n31/31 checks passed\n")


CHECK_IMPORT_SCRIPT = """
import contextlib, io, sys
from oldb2d import cli
loaded = "oldb2d.checks" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["check"])
print(loaded, code, out.getvalue().splitlines()[-1])
"""


def test_cli_loads_the_check_suite_for_check_only():
    """In a fresh process, importing `cli` leaves `checks` unloaded, so
    `run`, `picard` and `bounds` never compile it; `check` loads it and
    passes."""
    import oldb2d

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oldb2d.__file__)),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CHECK_IMPORT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False 0 31/31 checks passed"


def test_checks_see_a_perturbed_picard_product_pass(monkeypatch):
    """`check` verifies the integrands the Picard map runs: with the map's
    product pass off by a relative 1e-9, `picard.q2_consistency` fails."""
    exact = picard.dealiased_products

    def perturbed(*args, **kwargs):
        spectra, reals = exact(*args, **kwargs)
        return spectra * (1.0 + 1e-9), reals

    monkeypatch.setattr(picard, "dealiased_products", perturbed)
    results = {r.name: r for r in run_checks()}
    assert not results["picard.q2_consistency"].passed, results["picard.q2_consistency"]
