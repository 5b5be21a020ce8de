"""The library runs on numpy and the standard library alone.

scipy is a test oracle only: importing fblfas and running every CLI
subcommand must not load any scipy module. The check runs in a fresh
interpreter, since this test process imports scipy for its oracles. A
second fresh interpreter checks that every exported name resolves.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import fblfas

MC = ["--mc-samples", "1000", "--mrc-trials", "1000"]

# one small call per subcommand, with the Monte Carlo and MRC overlays on,
# and a dist past a thousand ports, whose sampling factor comes matrix-free
CALLS = [
    ["dist", "--ports", "4", "--samples", "1000", "--t-points", "3"],
    ["dist", "--ports", "1200", "--samples", "1000", "--t-points", "3"],
    ["quad-check", "--t-points", "2", "--mu", "0.5,0.97"],
    ["bler-vs-u", "--users", "1,3", "--ports", "3", "--mrc", "1,2"] + MC,
    ["bler-vs-snr", "--snr-db", "10,20", "--ports", "3", "--mrc", "1"] + MC,
    ["bler-vs-n", "--ports", "3,6", "--mrc", "2"] + MC,
    ["bler-vs-w", "--widths", "0.5,1", "--ports", "4", "--mrc", "1"] + MC,
    ["op-vs-snr", "--snr-db=-20,-10", "--ports", "5", "--gamma-th", "0.01", "--mrc", "1"] + MC,
    ["op-vs-u", "--users", "2,3", "--ports", "5", "--snr-db=-15", "--gamma-th", "0.01",
     "--mrc", "2"] + MC,
]

SCRIPT = """
import contextlib, io, json, sys
import fblfas
from fblfas import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _fresh_python(*args):
    src = str(Path(fblfas.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True, timeout=300, check=False)


def test_library_and_every_subcommand_run_without_scipy():
    assert len({argv[0] for argv in CALLS}) == 8
    proc = _fresh_python(SCRIPT, json.dumps(CALLS))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == []


# A stale export passes `import fblfas` but fails the star import.
EXPORTS = """
import importlib
names = {}
for module in ("fblfas", "fblfas.specfun", "fblfas.quadrature", "fblfas.channel"):
    exported = importlib.import_module(module).__all__
    assert len(set(exported)) == len(exported), module
    exec(f"from {module} import *", names)
    missing = [n for n in exported if n not in names]
    assert not missing, (module, missing)
"""


def test_every_exported_name_resolves():
    proc = _fresh_python(EXPORTS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
