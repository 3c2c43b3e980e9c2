"""Each demo's standard output is pinned by its SHA-256, so a change that
alters what a demo prints shows up here, not only a change that makes it
fail."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_DIGESTS = {
    "corollaries_demo.py": "f503e6057668c18fdbf5ed05770f89d04569d49927a060d61038323a02dc9f87",
    "finite_hamilton_demo.py": "14a1a203f0eef0a82cc348546767b21e6a3502182ab40f0b5ef09e8229565c5d",
    "infinite_engine_demo.py": "578590754e910089344da63ba4c30ba3d49b4d2903a275a81a8bcfbcd3a1aad1",
    "separator_structure_demo.py": "73e345d60bed56d8142ae4cca1d993f4ee2bed1d38629d839c698751dd561eec",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_is_pinned(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
