"""The README's shell transcripts, replayed as child processes.

Each ``$ `` line of a ```text block is run as ``python -m gugp_workbench``
in one scratch directory, in README order, and the lines shown under it must
equal its stdout followed by its stderr.  A ``...`` line stands for any run of
lines, a command shown with no output only has to succeed, and
``$ echo $?`` checks the exit code of the command before it (every other
command must exit 0).
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
SECTIONS = ("Thirty-second tour", "CLI reference")


def transcript(section: str) -> list[tuple[list[str], list[str]]]:
    """The (argv, shown output) of each command in a README section."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    steps = []
    for block in re.findall(r"```text\n(.*?)```", body, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            lines = chunk.splitlines()
            command = lines.pop(0)
            while command.endswith("\\"):
                command = command[:-1] + " " + lines.pop(0).strip()
            while lines and not lines[-1].strip():
                lines.pop()
            steps.append((shlex.split(command), lines))
    return steps


def shown_matches(shown: list[str], actual: list[str]) -> bool:
    pattern = "".join(
        r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in shown
    )
    return re.fullmatch(pattern, "".join(line + "\n" for line in actual)) is not None


def test_readme_transcripts_reproduce(tmp_path):
    steps = [step for section in SECTIONS for step in transcript(section)]
    assert len(steps) == 10 and steps[-1][0] == ["echo", "$?"]
    env = dict(os.environ)
    paths = [str(README.parent / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    status = None
    for i, (argv, shown) in enumerate(steps):
        if argv == ["echo", "$?"]:
            actual = [str(status)]
        else:
            assert argv[0] == "gugp-workbench", argv
            done = subprocess.run(
                [sys.executable, "-m", "gugp_workbench", *argv[1:]],
                cwd=tmp_path,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            status = done.returncode
            actual = (done.stdout + done.stderr).splitlines()
            checked_next = i + 1 < len(steps) and steps[i + 1][0] == ["echo", "$?"]
            assert checked_next or status == 0, (argv, done.stderr)
            if not shown:
                continue
        assert shown_matches(shown, actual), (argv, shown, actual)


def test_an_ellipsis_line_stands_for_any_run_of_lines():
    assert shown_matches(["a", "...", "z"], ["a", "z"])
    assert shown_matches(["a", "...", "z"], ["a", "b", "c", "z"])
    assert not shown_matches(["a", "...", "z"], ["a", "b"])
    assert not shown_matches(["a", "z"], ["a", "b", "z"])
