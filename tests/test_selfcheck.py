import fluidaircomp.selfcheck as selfcheck
from fluidaircomp.cli import cli_main


def test_check_subcommand_passes(capsys):
    assert cli_main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(selfcheck._CHECKS) == 9
    assert all(line.startswith("PASS") for line in lines)


def test_check_subcommand_reports_a_failing_check(monkeypatch, capsys):
    name, _ = selfcheck._CHECKS[0]
    failing = ((name, lambda rng: (False, "forced failure")),) + selfcheck._CHECKS[1:]
    monkeypatch.setattr(selfcheck, "_CHECKS", failing)
    assert cli_main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"FAIL  {name}: forced failure"
    assert all(line.startswith("PASS") for line in lines[1:])
