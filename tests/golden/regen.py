"""Golden outputs of the command line: one file per argv in ``CASES``.

Each file holds the argv, the exit code, and the stdout and stderr of
``oscillab.cli.main`` run in process on that argv. ``tests/test_golden.py``
compares the files byte for byte. The bytes are tied to the numpy and scipy
of ``VERSIONS``: the perturbed fit line prints full ``repr`` floats.

Rewrite every file (after a change that is meant to move an output, or
after a numpy or scipy upgrade) with:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# the numpy and scipy the files were written with
VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

TORUS = ("--periodic", "--box-lower", "0", "0", "--box-side", "1")
FOUR_MAPS = "strain:t=0.5;strain:t=1;shear:lambda=2;twist:alpha=3"
# torus maps of distinct K; ``sweep`` takes no --periodic, so the torus sweeps
# read the unit torus from a spec file beside this script
TORUS_SWEEP = ("sweep", "--spec", "torus-sweep.spec")
TORUS_MAPS = ("rotation:angle=1.5707963267948966;flow:psi=sin,t=0.25,step=0.05;"
              "shear:lambda=1;shear:lambda=2")

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
    # every builtin function, with and without keys, on a window and on a torus
    *((f"function-{stem}", ("seminorm", "--f", f, *box, "--grid-n", "64", "--stride", "8"))
      for stem, f, box in (("holder-a", "holder:a=0.25", ()),
                           ("sawtooth-k", "sawtooth:k=3", TORUS),
                           ("bump", "bump", TORUS),
                           ("bump-radius", "bump:radius=0.75", ()),
                           ("checker", "checker", ()),
                           ("checker-seed", "checker:seed=5", TORUS),
                           ("trig-seed-modes", "trig:seed=7,modes=5", TORUS),
                           ("log-clamp", "log:clamp=0.1", ()))),
    # the other densities, each with a map of keys
    ("density-top", ("carleson", "--density", "top", "--map", "rotation:angle=0.3",
                     "--grid-n", "64", "--stride", "8")),
    # a box reaches the top shell (height T, half the side) only on a torus
    ("density-top-torus", ("carleson", "--density", "top", *TORUS, "--grid-n", "64",
                           "--stride", "8", "--radii", "0.25,0.5", "--map", "rotation")),
    ("density-spike", ("carleson", "--density", "spike", "--map", "translation:dx=0.1,dy=-0.2",
                       "--grid-n", "64", "--stride", "8")),
    # fields with keys, on a window and on a torus
    ("field-constant", ("transport", "--field", "constant:vx=0.5,vy=0.25", "--u0", "bump",
                        "--grid-n", "64", "--stride", "8", "--times", "0,0.25,0.5,0.75,1")),
    ("field-cellular-torus", ("transport", "--field", "cellular:amp=0.01,k=2",
                              "--u0", "trig:seed=1", *TORUS, "--grid-n", "64", "--stride", "8",
                              "--times", "0,0.25,0.5,0.75,1")),
    # n = 256: the RK4 feet of one solve span several blocks
    ("transport-n256", ("transport", "--field", "strain", "--u0", "log", "--grid-n", "256",
                        "--stride", "16", "--times", "0,0.9,2.5")),
    ("perturbed-n256", ("perturbed", "--field", "cellular:amp=0.03", "--u0", "trig:seed=4",
                        "--grid-n", "256", "--stride", "16", "--box-lower", "0", "0",
                        "--box-side", "1", "--times", "0,0.4,1")),
    # maps of distinct K, flows of both stream functions among them
    ("sweep-distinct-k", ("sweep", "--maps", "identity;stretch:factor=1.5;"
                          "flow:psi=strain,t=0.5,step=0.05;flow:t=0.25,step=0.05;twist:alpha=2",
                          "--grid-n", "64", "--stride", "8")),
    # the holder and covering sweeps at p > 1
    ("sweep-holder-p2", ("sweep", "--kind", "holder", "--maps", FOUR_MAPS,
                         "--functions", "holder:a=0.5", "--a", "0.5", "--p", "2",
                         "--grid-n", "64", "--stride", "8")),
    ("sweep-covering-p3-a0.5", ("sweep", "--kind", "covering", "--maps", FOUR_MAPS,
                                "--p", "3", "--a", "0.5", "--grid-n", "64")),
    # a sweep of each kind on a torus
    ("sweep-torus-bmo-composition", (*TORUS_SWEEP, "--kind", "bmo-composition",
                                     "--maps", TORUS_MAPS, "--functions", "trig:seed=3")),
    ("sweep-torus-holder", (*TORUS_SWEEP, "--kind", "holder", "--maps", TORUS_MAPS,
                            "--functions", "holder:a=0.5", "--a", "0.5")),
    ("sweep-torus-carleson", (*TORUS_SWEEP, "--kind", "carleson", "--maps", TORUS_MAPS)),
    ("sweep-torus-covering", (*TORUS_SWEEP, "--kind", "covering", "--maps", TORUS_MAPS)),
    # user errors: exit 2 and one error: line
    ("error-kind", ("sweep", "--kind", "nope")),
    ("error-map", ("whitney", "--map", "wormhole", "--ball", "0,0,0.25")),
    ("error-map-key", ("whitney", "--map", "shear:mu=2", "--ball", "0,0,0.25")),
    ("error-map-value", ("whitney", "--map", "shear:lambda=abc", "--ball", "0,0,0.25")),
    ("error-map-nonfinite", ("whitney", "--map", "shear:lambda=inf", "--ball", "0,0,0.25")),
    ("error-stream-function", ("whitney", "--map", "flow:psi=nope", "--ball", "0,0,0.25")),
    ("error-field", ("transport", "--field", "wormhole")),
    ("error-density", ("carleson", "--density", "wormhole")),
    ("error-function-value", ("seminorm", "--f", "trig:seed=abc")),
    ("error-function", ("seminorm", "--f", "wormhole")),
    ("error-torus-map", ("whitney", "--periodic", "--map", "strain:t=0.5",
                         "--ball", "0,0,0.25")),
    ("error-times", ("transport", "--times=-0.1,0.1")),
]


def run(argv) -> str:
    """The golden text of one argv, run in this directory (where the spec
    files are): argv, exit code, stdout and stderr."""
    from oscillab import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
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
