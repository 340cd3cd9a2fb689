"""What a fresh interpreter imports: the package namespace loads each
submodule on first use, and the CLI loads a command's modules only when
that command runs.

Each check starts a new interpreter, because this test process has imported
every module and bound every name of ``glemarket.cli`` long before: a command
that forgot to bind a name it calls would still pass here in process.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from glemarket import cli

SRC = Path(__file__).resolve().parents[1] / "src"
# what `import glemarket.cli` loads: parsing, flag checks and error reports
EAGER = ["cli", "errors", "models", "noise", "series", "specfun"]


def fresh_python(argv, cwd=None):
    """Run ``python ARGV`` in a new interpreter that imports glemarket from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def loaded_after(code, cwd=None):
    """The glemarket submodules loaded once ``code`` has run, in a fresh interpreter."""
    report = ("import json, sys\nprint(json.dumps(sorted(name.partition('.')[2] for name in sys.modules\n"
              "                              if name.startswith('glemarket.'))))")
    proc = fresh_python(["-c", f"{code}\n{report}"], cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def write_prices(path, n=512):
    """A small seeded gbm-like price file with a 't,price' header."""
    rng = np.random.default_rng(5)
    prices = np.exp(np.cumsum(0.01 * rng.standard_normal(n)))
    rows = "".join(f"{0.125 * i!r},{p!r}\n" for i, p in enumerate(prices.tolist()))
    path.write_text("t,price\n" + rows, encoding="utf-8")


def test_import_glemarket_loads_no_submodule():
    assert loaded_after("import glemarket") == []


def test_import_cli_loads_what_parsing_reads():
    assert loaded_after("import glemarket, glemarket.cli") == EAGER


# the modules a command run alone loads beyond those `import glemarket.cli` loads
COMMAND_MODULES = [
    (["--help"], []),
    (["fig1", "--n-points", "20"], []),
    (["audit", "--model", "stock", "--theta", "1.5", "--n-real", "10"], []),
    # the fit reads returns_from_prices from market, and no march or inversion
    (["estimate", "--input", "prices.csv"], ["estimate", "market"]),
    # each acf route loads what it runs: the closed forms are in models, the
    # linear march in volterra (which draws white returns through market), and
    # a Lambert march in lambert, with its inverted startup window
    (["acf", "--model", "stock", "--theta", "2", "--route", "closed", "--h", "0.05",
      "--n-points", "50"], []),
    (["acf", "--model", "selfsim", "--route", "laplace", "--h", "0.05", "--n-points", "50"], ["laplace"]),
    (["acf", "--model", "stock", "--theta", "1.5", "--route", "volterra", "--h", "0.05",
      "--n-points", "50"], ["market", "volterra"]),
    (["acf", "--model", "boltzmann", "--route", "volterra", "--h", "0.05", "--n-points", "50"],
     ["lambert", "laplace"]),
    # the sampler and its summary need neither the inverter, a march nor the fitter
    (["simulate", "--model", "stock", "--theta", "1.5", "--n-paths", "1", "--n-steps", "256",
      "--h", "0.125", "--seed", "7", "--emit-prices"], ["market", "volterra"]),
    (["simulate", "--model", "gbm", "--n-paths", "1", "--n-steps", "256", "--h", "0.125",
      "--seed", "7"], ["market"]),
]
COMMAND_IDS = ["help", "fig1", "audit", "estimate", "acf-closed", "acf-laplace", "acf-volterra",
               "acf-boltzmann", "simulate-stock", "simulate-gbm"]


@pytest.mark.parametrize("argv,extra", COMMAND_MODULES, ids=COMMAND_IDS)
def test_a_command_loads_only_its_modules(tmp_path, argv, extra):
    write_prices(tmp_path / "prices.csv")
    code = ("import contextlib, io\nfrom glemarket.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    try:\n        code = main({argv!r})\n    except SystemExit as exc:\n        code = exc.code\n"
            "assert code == 0, code")
    assert loaded_after(code, cwd=tmp_path) == sorted(EAGER + extra)


# one call per command, each route of acf, and both kinds of simulate
CALLS = {
    "fig1": ["fig1", "--n-points", "50"],
    "acf-closed": ["acf", "--model", "stock", "--theta", "2", "--route", "closed",
                   "--h", "0.05", "--n-points", "200"],
    "acf-laplace": ["acf", "--model", "selfsim", "--route", "laplace", "--h", "0.05", "--n-points", "200"],
    "acf-volterra": ["acf", "--model", "stock", "--theta", "1.5", "--route", "volterra",
                     "--h", "0.05", "--n-points", "200"],
    "acf-boltzmann": ["acf", "--model", "boltzmann", "--route", "volterra", "--h", "0.05",
                      "--n-points", "200"],
    "simulate-stock": ["simulate", "--model", "stock", "--theta", "1.5", "--n-paths", "2",
                       "--n-steps", "256", "--h", "0.125", "--seed", "7", "--emit-prices"],
    "simulate-gbm": ["simulate", "--model", "gbm", "--n-paths", "2", "--n-steps", "256",
                     "--h", "0.125", "--seed", "7"],
    "estimate": ["estimate", "--input", "prices.csv", "--out", "report.csv"],
    "audit": ["audit", "--model", "stock", "--theta", "1.5", "--n-real", "20", "--n-complex", "5",
              "--seed", "3", "--out", "audit.csv"],
}


def outputs(work):
    return {path.relative_to(work).as_posix(): path.read_bytes()
            for path in sorted((work / "out").rglob("*")) if path.is_file()}


@pytest.mark.parametrize("label", CALLS)
def test_a_command_alone_in_a_fresh_interpreter_matches_it_in_process(tmp_path, monkeypatch, label):
    argv = [*CALLS[label], "--out-dir", "out"]
    alone, here = tmp_path / "alone", tmp_path / "here"
    for work in (alone, here):
        work.mkdir()
        write_prices(work / "prices.csv")
    proc = fresh_python(["-m", "glemarket", *argv], cwd=alone)

    monkeypatch.chdir(here)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)

    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.getvalue(), err.getvalue())
    assert code == 0
    files = outputs(here)
    assert files and outputs(alone) == files
