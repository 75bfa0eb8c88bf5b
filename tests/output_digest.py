"""Exit code, sha256(stdout) and sha256(stderr) of a fixed list of argvs.

Each argv runs as `python -m zetacomb.cli ...` in a fresh interpreter with
the given source tree first on PYTHONPATH.  The list is every `$ zetacomb`
line in the README's text blocks, every row of its exit-code table, the
argv of every golden sha256 in tests/test_cli.py in text, csv and json,
two large tables, a few refusals, and the first cycle of each benchmark
workload at seed 1.  From the repository root, one tree prints the line
of every argv:

    PYTHONPATH=src python tests/output_digest.py src

Two trees, say a `git archive` copy of another commit and this one, run
each argv on the old tree and then on the new, argv by argv, and print
only the argvs whose exit code, stdout digest or stderr digest differ, as
an `old` and a `new` line each; the exit code is 1 if any differs:

    PYTHONPATH=src python tests/output_digest.py /path/to/old/src src

The argv list comes from this checkout's README and tests, whichever tree
runs.  Too long for the test suite (20 to 30 s a tree, half of it the
10^6-row sinc table, which needs about 800 MB); pytest does not collect it.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_cli import exit_code_table, readme_examples  # noqa: E402

GOLDEN = [
    ["zeta", "--max-k", "100", "--oracle"],
    ["zeta", "--max-k", "200", "--oracle"],
    ["kernel", "--n", "1831", "--samples", "1330"],
    ["kernel", "--n", "50"],
    ["action", "--phi", "gauss", "--center", "0.3", "--radius", "1.2",
     "--n-list", "0,1,37,500,12000", "--tol", "1e-12"],
    ["action", "--phi", "plateau", "--n-list", "0,1,37,500,12000", "--tol", "1e-12"],
    ["action", "--phi", "gauss", "--center", "0", "--radius", "1.2",
     "--n-list", "0,1,37,500,12000", "--tol", "1e-12"],
    ["comb", "--phi", "gauss", "--center", "-0.7", "--radius", "3", "--n", "239", "--tol", "1e-12"],
    ["fourier", "--order", "1", "--n", "600001", "--samples", "7", "--xmin", "-6", "--xmax", "12"],
    ["fourier", "--order", "2", "--n", "1048577", "--samples", "5", "--xmin", "-13", "--xmax", "4"],
    ["fourier", "--order", "1", "--n", "100", "--samples", "9", "--xmin", "-3", "--xmax", "3"],
    ["fourier", "--order", "2", "--n", "100", "--samples", "9", "--xmin", "-3", "--xmax", "3"],
    ["sinc", "--n-max", "350", "--tol", "1e-12"],
]

EXTRA = [
    ["sinc", "--n-max", "999999"],
    ["kernel", "--n", "1342", "--samples", "100000"],
    ["action", "--n-list", "140737488355328", "--tol", "1e-12"],  # the summed floors pass tol
    ["action", "--n-list", "-1,2"],
    ["kernel", "--n", "5", "--samples", "3", "--xmin", "-inf"],
    # grids the library's closed forms or grid rule refuse
    ["fourier", "--order", "2", "--n", "1", "--samples", "2", "--xmin", "1e154", "--xmax", "1.5e154"],
    ["fourier", "--order", "2", "--n", "7", "--samples", "4", "--xmin=-1e300", "--xmax", "1e300"],
    ["fourier", "--order", "1", "--n", "3", "--samples", "3", "--xmin", "2", "--xmax", "1"],
    ["fourier", "--order", "1", "--n", "3", "--samples", "3", "--xmin=-1.7e308", "--xmax", "1.7e308"],
    ["kernel", "--n", "5", "--samples", "3", "--xmin=-1.7e308", "--xmax", "1.7e308"],
    # one per range, cap or finiteness rule that the library, not the parser, states
    ["kernel", "--n", "5", "--samples", "1"],
    ["fourier", "--order", "1", "--n", "10", "--samples", "100001", "--xmin", "0", "--xmax", "1"],
    ["sinc", "--n-max", "2", "--tol", "inf"],
    ["comb", "--phi", "gauss", "--radius", "0", "--n", "5"],
    ["zeta", "--max-k", "201"],
    ["kernel", "--n", "-1"],
    ["action", "--phi", "gauss", "--center", "nan", "--n-list", "5"],
    # an --out path that cannot be opened
    ["kernel", "--n", "5", "--out", "/nonexistent/dir/t.csv"],
]


# The first cycle of each benchmark workload at seed 1 (perfbench/run.py
# --seed 1), written out so this script imports nothing from perfbench.
BENCHMARK = [
    ["zeta", "--max-k", "4", "--format", "text"],
    ["zeta", "--max-k", "5", "--oracle", "--format", "csv"],
    ["zeta", "--max-k", "15", "--format", "json"],
    ["zeta", "--max-k", "17", "--oracle", "--format", "text"],
    ["zeta", "--max-k", "27", "--format", "csv"],
    ["zeta", "--max-k", "39", "--oracle", "--format", "json"],
    ["zeta", "--max-k", "53", "--format", "text"],
    ["zeta", "--max-k", "60", "--oracle", "--format", "csv"],
    ["action", "--phi", "gauss", "--center", "-0.728", "--radius", "0.859",
     "--n-list", "29,110,13062", "--tol", "1e-10", "--format", "text"],
    ["action", "--phi", "plateau", "--n-list", "20,223,12461", "--tol", "1e-11", "--format", "csv"],
    ["comb", "--phi", "gauss", "--center", "-0.434", "--radius", "5.42", "--n", "22",
     "--tol", "1e-10", "--format", "json"],
    ["comb", "--phi", "gauss", "--center", "-0.787", "--radius", "0.572", "--n", "78",
     "--tol", "1e-10", "--format", "text"],
    ["comb", "--phi", "gauss", "--center", "-0.663", "--radius", "2.169", "--n", "239",
     "--tol", "1e-11", "--format", "csv"],
    ["comb", "--phi", "plateau", "--n", "37", "--tol", "1e-10", "--format", "json"],
    ["comb", "--phi", "plateau", "--n", "118", "--tol", "1e-10", "--format", "text"],
    ["sinc", "--n-max", "20", "--tol", "1e-11", "--format", "csv"],
    ["sinc", "--n-max", "128", "--tol", "1e-12", "--format", "json"],
    ["sinc", "--n-max", "350", "--tol", "1e-10", "--format", "text"],
    ["kernel", "--n", "124", "--samples", "410", "--format", "text"],
    ["kernel", "--n", "680", "--samples", "723", "--format", "csv"],
    ["kernel", "--n", "3040", "--samples", "1342", "--format", "json"],
    ["fourier", "--order", "1", "--n", "2296", "--samples", "2001", "--xmin", "-4.743", "--xmax", "0.377",
     "--format", "text"],
    ["fourier", "--order", "2", "--n", "2362", "--samples", "1700", "--xmin", "-2.468", "--xmax", "7.368",
     "--format", "csv"],
    ["fourier", "--order", "1", "--n", "10840", "--samples", "405", "--xmin", "-4.266", "--xmax", "4.008",
     "--format", "json"],
    ["fourier", "--order", "2", "--n", "260345", "--samples", "18", "--xmin", "-3.132", "--xmax", "0.267",
     "--format", "text"],
    ["fourier", "--order", "1", "--n", "845435", "--samples", "5", "--xmin", "-10.665", "--xmax", "1.038",
     "--format", "csv"],
]


def argvs() -> list:
    return [
        *(argv for argv, _ in readme_examples()),
        *(list(argv) for argv in exit_code_table()),
        *([*argv, "--format", fmt] for argv in GOLDEN for fmt in ("text", "csv", "json")),
        *EXTRA,
        *BENCHMARK,
    ]


def digest(src: str, argv: list) -> str:
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-m", "zetacomb.cli", *argv], env=env, capture_output=True)
    out = hashlib.sha256(result.stdout).hexdigest()
    err = hashlib.sha256(result.stderr).hexdigest()
    return f"{result.returncode} {out} {err} {' '.join(argv)}"


def compare(old: str, new: str) -> int:
    """Print the argvs whose lines differ between the two trees; 1 if any does."""
    runs = argvs()
    differ = 0
    for argv in runs:
        before, after = digest(old, argv), digest(new, argv)
        if before != after:
            differ += 1
            print(f"old {before}\nnew {after}", flush=True)
    print(f"{differ} of {len(runs)} argvs differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit("usage: python tests/output_digest.py SRC_DIR, or OLD_SRC_DIR NEW_SRC_DIR")
    trees = [str(Path(arg).resolve()) for arg in sys.argv[1:]]
    if len(trees) == 2:
        sys.exit(compare(*trees))
    for argv in argvs():
        print(digest(trees[0], argv), flush=True)
