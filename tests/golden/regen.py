"""Golden outputs of the command line: one file per argv in ``CASES``.

Each file holds the argv, the exit code, and the stdout and stderr of
``oscillab.cli.main`` run in process on that argv. ``tests/test_golden.py``
compares the files byte for byte. The bytes are tied to numpy 2.4.6 and
scipy 1.17.1: the perturbed fit line prints full ``repr`` floats.

Rewrite every file (after a change that is meant to move an output, or
after a numpy or scipy upgrade) with:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

TORUS = ("--periodic", "--box-lower", "0", "0", "--box-side", "1")
FOUR_MAPS = "strain:t=0.5;strain:t=1;shear:lambda=2;twist:alpha=3"

# (file stem, argv)
CASES = [
    # README's six commands
    ("readme-seminorm", ("seminorm", "--f", "log", "--grid-n", "128", "--stride", "16")),
    ("readme-whitney", ("whitney", "--map", "strain:t=1", "--ball", "0,0,0.25")),
    ("readme-carleson", ("carleson", "--density", "strip", "--map", "strain:t=-1")),
    ("readme-transport", ("transport", "--field", "strain", "--u0", "log", "--times", "0,1,2,3")),
    ("readme-perturbed", ("perturbed", "--field", "cellular", "--u0", "trig",
                          "--times", "0,0.5,1")),
    ("readme-sweep", ("sweep", "--kind", "bmo-composition", "--maps", "strain:t=0.5;strain:t=1",
                      "--functions", "log")),
    # a sweep of each kind
    ("sweep-bmo-composition", ("sweep", "--kind", "bmo-composition", "--maps", FOUR_MAPS,
                               "--functions", "log;trig:seed=3", "--grid-n", "64",
                               "--stride", "8", "--seed", "2")),
    ("sweep-holder", ("sweep", "--kind", "holder", "--maps", FOUR_MAPS,
                      "--functions", "holder:a=0.5", "--a", "0.5", "--grid-n", "64",
                      "--stride", "8")),
    ("sweep-covering", ("sweep", "--kind", "covering", "--maps", FOUR_MAPS, "--grid-n", "64")),
    ("sweep-carleson", ("sweep", "--kind", "carleson", "--maps", FOUR_MAPS, "--grid-n", "64",
                        "--stride", "8")),
    # torus seminorms at p in {1, 2, 3} and a in {0, 0.5}
    *((f"torus-seminorm-p{p}-a{a}", ("seminorm", "--f", "log", *TORUS, "--grid-n", "64",
                                     "--stride", "8", "--p", p, "--a", a))
      for p in ("1", "2", "3") for a in ("0", "0.5")),
    # a window whose corner and side are not dyadic
    ("window-non-dyadic", ("seminorm", "--f", "trig:seed=4", "--box-lower", "-0.3", "0.1",
                           "--box-side", "1.7", "--grid-n", "64", "--stride", "4",
                           "--p", "2", "--a", "0.5")),
    # the other commands on a torus
    ("torus-carleson-bmo", ("carleson", "--density", "bmo", *TORUS, "--grid-n", "64",
                            "--stride", "8", "--map", "shear:lambda=1")),
    ("torus-whitney", ("whitney", "--map", "shear:lambda=1", "--ball", "0.5,0.5,0.125",
                       *TORUS, "--grid-n", "64")),
    ("torus-transport", ("transport", "--field", "cellular", "--u0", "trig:seed=2", *TORUS,
                         "--grid-n", "64", "--stride", "8",
                         "--times", "0,0.25,0.5,0.75,1")),
    ("torus-perturbed", ("perturbed", "--grid-n", "64", "--stride", "8", "--dt", "0.05",
                         "--times", "0,0.25,0.5,0.75,1")),
    # user errors: exit 2 and one error: line
    ("error-kind", ("sweep", "--kind", "nope")),
    ("error-function", ("seminorm", "--f", "wormhole")),
    ("error-torus-map", ("whitney", "--periodic", "--map", "strain:t=0.5",
                         "--ball", "0,0,0.25")),
    ("error-times", ("transport", "--times=-0.1,0.1")),
]


def run(argv) -> str:
    """The golden text of one argv: argv, exit code, stdout and stderr."""
    from oscillab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return (f"argv: {shlex.join(argv)}\nexit: {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def path(stem: str) -> Path:
    return HERE / f"{stem}.txt"


def main() -> int:
    for old in HERE.glob("*.txt"):
        old.unlink()
    for stem, argv in CASES:
        path(stem).write_text(run(argv))
    print(f"wrote {len(CASES)} golden files to {HERE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
