"""tools/cli_digest.py: a smoke test on three command lines, and the whole
list against the golden digest ``tests/cli_digest.txt``."""

import hashlib
import importlib.util
import re
from pathlib import Path

from darboux3.cli import _COMMANDS, main
from darboux3.tables import TABLE_IDS

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
_GOLDEN = Path(__file__).resolve().parent / "cli_digest.txt"
_SPEC = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)


def test_digest_of_stdout_and_exit_code(capsys):
    argv = "energy --lambda 0.4 --n 0"
    line = cli_digest.digest_line(argv)
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    want = hashlib.sha256(captured.out.encode() + b"\0" + captured.err.encode() + b"\0")
    assert line == f"{want.hexdigest()}  0  {argv}"


def test_digest_takes_written_files_and_usage_errors():
    written = cli_digest.digest_line("profile density-position --lambda 0.4 --n 2 --out {out}/a.csv")
    renamed = cli_digest.digest_line("profile density-position --lambda 0.4 --n 2 --out {out}/b.csv")
    assert re.fullmatch(r"[0-9a-f]{64}  0  profile .*a\.csv", written)
    assert written.split()[0] != renamed.split()[0]  # the file's name enters the digest
    assert written == cli_digest.digest_line("profile density-position --lambda 0.4 --n 2 --out {out}/a.csv")
    usage = cli_digest.digest_line("energy --lambda -0.5")
    assert usage.split("  ")[1:] == ["2", "energy --lambda -0.5"]


def test_list_covers_every_command_and_table():
    argvs = cli_digest._argvs()
    assert {a.split()[0] for a in argvs if a} >= set(_COMMANDS)
    assert {a.split()[1] for a in argvs if a.startswith("table ")} >= set(TABLE_IDS)


def test_live_digest_matches_the_golden_file():
    # the golden file pins one machine's bytes (see its header)
    golden = [line for line in _GOLDEN.read_text().splitlines() if not line.startswith("#")]
    live = [cli_digest.digest_line(argv) for argv in cli_digest._argvs()]
    moved = [
        f"{argv}\n  golden: {old}\n  live:   {new}"
        for argv, old, new in zip(cli_digest._argvs(), golden, live)
        if old != new
    ]
    assert not moved, "command lines whose digest moved:\n" + "\n".join(moved)
    assert len(live) == len(golden)


def test_rows_print_each_output_row(monkeypatch, capsys):
    # --rows prints each command line's exit code, then every row of its
    # stdout, stderr and written files, each prefixed by the command line
    stdout, written = "energy --lambda 0.4 --n 0,1", "energy --lambda 0,0.4 --n 2 --out {out}/e.csv"
    monkeypatch.setattr(cli_digest, "_argvs", lambda: [stdout, written, "energy --lambda -0.5"])
    assert cli_digest.main(["--rows"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert main(stdout.split()) == 0
    energies = capsys.readouterr().out.splitlines()
    assert rows[: 1 + len(energies)] == [f"{stdout}  |  exit 0"] + [f"{stdout}  |  stdout  |  {r}" for r in energies]
    assert rows[1 + len(energies) :] == [
        f"{written}  |  exit 0",
        f"{written}  |  e.csv  |  n,lambda,energy",
        f"{written}  |  e.csv  |  2,0,2.5",
        f"{written}  |  e.csv  |  2,0.4,1.03553390593",
        "energy --lambda -0.5  |  exit 2",
        "energy --lambda -0.5  |  stderr  |  usage error: --lambda values must be non-negative",
    ]
