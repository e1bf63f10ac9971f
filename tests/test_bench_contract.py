"""The benchmark's traced mode (`perfbench/run.py --trace 1`) wraps troplin's
names from outside, so a renamed or deleted name breaks it.  Every name it
patches must exist, and restoring must put every original object back."""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def test_traced_mode_patches_and_restores_every_name():
    sys.path.insert(0, PERFBENCH)
    try:
        import run
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    probes = tracer.Tracer()
    try:
        run.install_probes(probes)
        patches = probes.patched()
        assert patches
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        probes.restore()
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)
