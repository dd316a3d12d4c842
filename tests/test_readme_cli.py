"""Every ``triwalks ...`` example of README.md prints its recorded JSON.

Each document is compared with ``golden/readme_cli.json`` without its
``"timing"`` key, the only part that varies between runs.
``verify --suite all`` is left out: ``test_kernel.py::
test_verify_grids_keep_their_sizes`` already runs its 20 checks with their
exact counts.
"""

import json
import pathlib
import shlex

from triwalks import cli

ROOT = pathlib.Path(__file__).resolve().parent
SKIPPED = ["verify", "--suite", "all"]


def readme_commands():
    text = (ROOT.parent / "README.md").read_text()
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("triwalks ")]


def test_readme_examples_print_the_recorded_json(tmp_path, monkeypatch, capsys):
    golden = json.loads((ROOT / "golden" / "readme_cli.json").read_text())
    monkeypatch.chdir(tmp_path)  # `scaffolding --out scaf.json` writes here
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    commands = [argv for argv in readme_commands() if argv != SKIPPED]
    assert [case["argv"] for case in golden] == commands
    for case in golden:
        code = cli.main(case["argv"])
        lines = capsys.readouterr().out.strip().splitlines()
        doc = json.loads(lines[-1])
        doc.pop("timing")
        assert (code, doc) == (case["exit"], case["doc"]), case["argv"]


def test_gf_documents_keep_their_bytes(capsys):
    # the closed form's coefficients are digit strings, in the recorded order
    golden = json.loads((ROOT / "golden" / "readme_cli.json").read_text())
    cases = [case for case in golden if case["argv"][0] == "gf"]
    assert cases
    for case in cases:
        assert cli.main(case["argv"]) == case["exit"]
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        doc.pop("timing")
        assert json.dumps(doc) == json.dumps(case["doc"]), case["argv"]
