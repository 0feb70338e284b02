"""Golden digests: sha256 of every output the bundled instances and the
benchmark's generated texts produce, for a byte-identity check in one test.

    python3 tests/golden.py

prints the keys whose digest moved against the committed file, and how
many, then rewrites tests/golden.json.  The digests are computed in a
subprocess with numpy's SIMD targets above its baseline switched off,
since the last bits of np.exp, np.sin and np.cos follow them, and
OpenBLAS on one thread.
No BLAS product enters a value, so the digests do not depend on which
kernel OpenBLAS picks.  tests/test_golden.py runs the same subprocess
under two OpenBLAS kernels, and compares the two runs with each other and
with the committed file.

Digested, each under its own key:
  - the CLI on example41-43: check, check --json, greens, greens --n 7 and
    solve --svg --json, plus reproduce all; the exit code, stdout and
    every sidecar file;
  - greens --n 7 on two numeric-kernel texts;
  - at seeds 41 and 42, every family-solve and solve-failure text of
    bench/workloads.py: Certificate.to_dict(), and Orbit.summary() with
    the bits of both sampled paths, or the NoConvergenceError's fields.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
SEEDS = (41, 42)

# two texts whose kernels are numeric: a varying damping, and a strong
# constant one whose table holds NaN and infinite cells
_NUMERIC_TEXTS = {
    "numeric-damped": "omega = 2*pi/3\np = 0.05 + 0.02*cos(3*t)\n"
                      "q = 0.03 + 0.005*sin(3*t)\nb = 1 + 2*cos(3*t)\n"
                      "c = exp(2*sin(3*t))\ne = 10 + cos(3*t)\n"
                      "rho1 = 3/2\nrho2 = 13/10\n",
    "numeric-strong": "omega = 2*pi/3\np = -50\nq = 1/40\n"
                      "b = 1 + 2*cos(3*t)\nc = exp(2*sin(3*t))\n"
                      "e = 10 + cos(3*t)\nrho1 = 3/2\nrho2 = 13/10\n",
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _json_sha(doc) -> str:
    return _sha(json.dumps(doc, sort_keys=True))


# periorbit and the benchmark's workloads are imported where they are used:
# in the pinned subprocess, which has src/ and bench/ on its path


def _cli_digests(out: dict, workdir: Path) -> None:
    from periorbit import cli

    commands = []
    for stem in ("example41", "example42", "example43"):
        commands += [["check", stem], ["check", stem, "--json"],
                     ["greens", stem], ["greens", stem, "--n", "7"],
                     ["solve", stem, "--svg", "--json"]]
    commands.append(["reproduce", "all"])
    for name, text in _NUMERIC_TEXTS.items():
        path = workdir / f"{name}.problem"
        path.write_text(text, encoding="utf-8")
        commands.append(["greens", str(path), "--n", "7"])
    for k, cmd in enumerate(commands):
        label = " ".join(Path(a).stem if a.endswith(".problem") else a
                         for a in cmd)
        out_dir = workdir / f"out-{k}"
        out_dir.mkdir()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["--out", str(out_dir), *cmd])
        out[f"cli/{label}/exit"] = str(code)
        out[f"cli/{label}/stdout"] = _sha(stdout.getvalue())
        for file in sorted(out_dir.iterdir()):
            out[f"cli/{label}/{file.name}"] = _sha(file.read_bytes())


def _solve_digests(out: dict) -> None:
    import periorbit
    import workloads

    for seed in SEEDS:
        for workload in (workloads.FamilySolve, workloads.SolveFailure):
            items = workload(seed, workdir=None, src=None).items
            for k, item in enumerate(items):
                key = f"{workload.name}/{seed}/{k:02d}"
                problem = periorbit.parse_problem_text(item.text)
                cert = periorbit.certify(problem.spec, a1=problem.a1)
                out[f"{key}/certificate"] = _json_sha(cert.to_dict())
                try:
                    orbit = periorbit.find_periodic(problem.spec, tol=1e-8)
                except periorbit.NoConvergenceError as err:
                    out[f"{key}/error"] = _json_sha(
                        [str(err), err.best_residual, err.shots,
                         err.newton_steps, list(err.stops)])
                    continue
                out[f"{key}/summary"] = _json_sha(orbit.summary())
                out[f"{key}/paths"] = _sha(b"".join(
                    a.tobytes() for path in (orbit.path, orbit.y_path)
                    for a in (path.t, path.x, path.v)))


def digests() -> dict:
    """Every digest, computed in this process."""
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        _cli_digests(out, Path(tmp))
    _solve_digests(out)
    return out


def _environment() -> dict:
    """What the stored digests depend on beyond the SIMD pin."""
    return {"numpy": numpy.__version__, "libc": list(platform.libc_ver())}


def moved(want: dict, got: dict) -> list:
    """The keys, sorted, whose digest differs between two digest maps, or
    that only one of them holds."""
    return sorted(k for k in want.keys() | got.keys()
                  if want.get(k) != got.get(k))


def skip_reason(stored: dict) -> str | None:
    """Why the stored digests cannot be checked here, or None."""
    for key, value in _environment().items():
        if stored.get(key) != value:
            return (f"the digests were written under {key} "
                    f"{stored.get(key)}, this host has {value}")
    return None


def generate(coretype: str | None = None) -> dict:
    """The golden document, computed in a pinned subprocess, with OpenBLAS
    on the kernel `coretype` names, or on its own choice when None."""
    # numpy's SIMD targets above its baseline that this CPU has
    simd = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               NPY_DISABLE_CPU_FEATURES=" ".join(simd),
               PYTHONPATH=os.pathsep.join(
                   str(ROOT / d) for d in ("src", "bench", "tests")))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    run = subprocess.run(
        [sys.executable, "-c",
         "import json, golden; print(json.dumps(golden.digests()))"],
        env=env, cwd=ROOT, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"golden digests failed:\n{run.stderr}")
    return {**_environment(), "digests": json.loads(run.stdout)}


if __name__ == "__main__":
    doc = generate()
    committed = (json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]
                 if GOLDEN.exists() else {})
    changed = moved(committed, doc["digests"])
    for key in changed:
        print(f"moved: {key}")
    print(f"{len(changed)} of {len(doc['digests'])} digests moved")
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(doc['digests'])} digests to {GOLDEN}")
