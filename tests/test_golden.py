"""Command-line outputs stay byte-identical to the golden corpus.

``tests/golden/regen.py`` lists the argv and rewrites the files; a change
that moves a golden file is a change of a check and says why.
"""

import importlib.metadata
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_golden_outputs_are_byte_identical():
    stems = [stem for stem, _ in regen.CASES]
    assert len(set(stems)) == len(stems)
    assert sorted(p.stem for p in regen.HERE.glob("*.txt")) == sorted(stems)
    changed = [stem for stem, argv in regen.CASES
               if regen.run(argv).encode() != regen.path(stem).read_bytes()]
    assert not changed, (
        f"outputs differ from the golden files: {changed}; the files were written with "
        + ", ".join(f"{pkg} {v}" for pkg, v in regen.VERSIONS.items()) + "; this run has "
        + ", ".join(f"{pkg} {importlib.metadata.version(pkg)}" for pkg in regen.VERSIONS))
