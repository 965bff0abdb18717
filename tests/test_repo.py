"""Repository hygiene: git tracks nothing that .gitignore excludes,
every function the benchmark tracer wraps or counts exists in the
package, the package transforms real fields with rfftn/irfftn only,
the certifier runs without SciPy, the dict contraction is no second
tensor build, and only ``cli.main`` turns an exception into an exit
code."""
import ast
import importlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)


def test_no_ignored_files_tracked():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    if _git("rev-parse", "--is-inside-work-tree").stdout.strip() != "true":
        pytest.skip("not a git work tree")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def test_tracer_functions_resolve():
    # the tracer only lists a missing target as "not traced", so a
    # rename would drop its span and metrics without failing a run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr, *_ in tracer.FUNCTIONS
               if not hasattr(importlib.import_module(module), attr)]
    # the kernel counters are installed with getattr, so a renamed kernel
    # function would crash every traced run at install instead
    kernel = importlib.import_module("abiwave.symbolic._kernel_py")
    missing += [f"{kernel.__name__}.{attr}"
                for attr, _ in tracer.KERNEL_COUNTERS
                if not hasattr(kernel, attr)]
    assert missing == []


COMPLEX_FFTS = {f"{module}.{name}" for module in ("scipy.fft", "numpy.fft")
                for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")}


def _import_names(tree):
    """Local name -> dotted module path, from a module's absolute imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for a in node.names:
                names[a.asname or a.name] = f"{node.module}.{a.name}"
    return names


def _dotted(node, names):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(names.get(node.id, node.id))
    return ".".join(reversed(parts))


def test_src_uses_no_complex_full_lattice_fft():
    # every field is real and lives on the half spectrum; a complex
    # full-lattice transform would be a second transform pair
    found = []
    for path in sorted((ROOT / "src" / "abiwave").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = _import_names(tree)
        found += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Attribute, ast.Name))
                  and (name := _dotted(node, names)) in COMPLEX_FFTS]
    assert found == []


_CERTIFY_WITHOUT_SCIPY = """
import sys
import abiwave, abiwave.cli
from abiwave.symbolic.certify import certify
cert = certify((0, 1, -1), "constraint", preflight=True)
assert cert.verified
abiwave.cli.RunManifest("verify-symbols", {}).write(sys.argv[1])
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_certifier_loads_no_scipy(tmp_path):
    # the certifier needs numpy only; scipy.fft loads at the first
    # transform, which no import, certificate or manifest makes
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", _CERTIFY_WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_src_never_uses_the_dict_contraction():
    # the tensor build multiplies array codes; _kernel_py.mul_add_into
    # stays for the tracer's counter only, not as a second build path
    found = []
    for path in sorted((ROOT / "src" / "abiwave").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.relative_to(ROOT)}:{node.lineno}"
                  for node in ast.walk(tree)
                  if getattr(node, "id", getattr(node, "attr", None))
                  == "mul_add_into"
                  or isinstance(node, ast.alias)
                  and node.name == "mul_add_into"]
    assert found == []


def test_only_cli_main_decides_exit_codes():
    # a subcommand writes its outputs and raises; main alone maps the
    # exception to an exit code and one stderr line
    tree = ast.parse((ROOT / "src" / "abiwave" / "cli.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    found = [f"{name}:{node.lineno}" for name, fn in functions.items()
             if name.startswith("cmd_") for node in ast.walk(fn)
             if isinstance(node, ast.ExceptHandler)
             or isinstance(node, ast.Return) and node.value is not None]
    assert found == []
    assert "_config_error" not in functions
