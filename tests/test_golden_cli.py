"""Golden JSON of the README CLI examples.

Each example runs in process with `--format json`; its exit code and its
exact output line must match the record in `tests/golden/cli.json`.  The
`verify --random 100` report is large, so only its sha256 is kept.  A change
that alters a canonical output on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and says which records changed and why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from logderiv.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
BASIS_FILE = "{basis}"
BASIS_TEXT = "x^2*d_x\ny^3*d_y\n"
HASHED = {"verify"}

EXAMPLES = {
    "derivations_conic": ["derivations", "x^2+y^2", "--vars", "x,y", "--u", "1,1", "--v", "0,0"],
    "derivations_monomial": ["derivations", "x^2*y^3", "--vars", "x,y", "--factors", "x:2,y:3"],
    "resolution": ["resolution", "x^2*z+y^3+z^4", "--vars", "x,y,z", "--infer-weights"],
    "betti": ["betti", "x^2*z+y^3+z^4", "--vars", "x,y,z", "--infer-weights"],
    "chi": ["chi", "x^2+y^2", "--vars", "x,y", "--u", "1,1", "--v", "0,0"],
    "hilbert": ["hilbert", "--vars", "x,y", "--u", "1,2"],
    "saito": ["saito", "x^2*y^3", "--vars", "x,y", "--factors", "x:2,y:3",
              "--derivations", BASIS_FILE],
    "homogenize": ["homogenize", "x^2*z+y^3+z^4", "--vars", "x,y,z"],
    "homogenize_mix": ["homogenize", "x^2*z+y^3+z^4", "--vars", "x,y,z", "--mix", "0,1"],
    "verify": ["verify", "--random", "100", "--max-vars", "3", "--max-degree", "6",
               "--seed", "0"],
}


def run_example(argv: list[str], basis_path: Path) -> dict:
    """Exit code and output of one example, in the form stored in the file."""
    basis_path.write_text(BASIS_TEXT, encoding="utf-8")
    args = [str(basis_path) if a == BASIS_FILE else a for a in argv] + ["--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    record = {"argv": argv, "exit": code}
    if argv[0] in HASHED:
        record["sha256"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    else:
        record["stdout"] = out.getvalue()
    return record


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(EXAMPLES))
def test_readme_example_matches_golden_json(name, tmp_path):
    expected = load_golden()[name]
    assert expected["argv"] == EXAMPLES[name]
    assert run_example(EXAMPLES[name], tmp_path / "basis.txt") == expected


def record(path: Path = GOLDEN) -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: run_example(argv, Path(tmp) / "basis.txt")
                  for name, argv in EXAMPLES.items()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
