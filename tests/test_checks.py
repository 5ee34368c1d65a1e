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
