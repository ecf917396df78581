"""The scripts' stdout, pinned byte for byte.

``gadget_tables``, ``iteration_census`` and ``strip_bounds_survey`` each run
as a child with their default arguments, and the sha256 of each stdout must
equal the digest recorded when the pin was set.  A change that moves a
table, a census count or a survey line shows here.  ``raise_census`` runs
this suite itself, so it is a CI step rather than a pin here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "gadget_tables": "11703763ffdbbc4709acbd675836bfbc918f9b410a26bb361a40a0399802ab7a",
    "iteration_census": "3d5f42f22afdc079ce83b765335a8856656f3e64ddd252bccf821fd24c77dfef",
    "strip_bounds_survey": "97ce1b5805ae7d44d4729aa86078e5af995c851e1cc17c682729901240923dc8",
}


@pytest.mark.parametrize("script", sorted(DIGESTS))
def test_script_stdout_is_pinned(script):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py")],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[script]
