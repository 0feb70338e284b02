"""Command-line front end.

Subcommands:
  check FILE      evaluate the existence certificate; exit 0 iff verdict true
  greens FILE     emit the periodic kernel grid and its constants
  solve FILE      compute a periodic orbit by Newton shooting
  reproduce ID    re-run bundled instances against their reference results

FILE is a path to a key=value problem file or the name of a bundled
instance (example41, example42, example43).  Data goes to stdout, human
diagnostics to stderr.  Sidecar files (JSON / CSV / SVG) are written to
--out, the PERIORBIT_OUT environment variable, or the current directory.

Exit codes: 0 success / verdict true; 1 a well-posed run answered
negatively (verdict false, resonance, no convergence, guard violation);
2 usage, parse, or validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from .expressions import EvalDomainError
# closed_form_constant and numeric_periodic_green are not called here;
# bench/spans.py rebinds them under these names
from .greens import (ResonanceError, closed_form_constant, kernel_for,
                     numeric_periodic_green)
from .hypotheses import Certificate, ProblemSpec, alpha_exponent, certify
from .ivp import IntegrationBlowUp
from .problemfile import LoadedProblem, ProblemFileError, load_problem, \
    parse_problem_text
from .solver import (NoConvergenceError, Orbit, SingularityError, State,
                     apply_T, cone_check, find_periodic)
from .svgfig import phase_svg, timeseries_svg
from .transform import to_y_equation

__all__ = ["main", "run"]

_BUNDLED = ("example41", "example42", "example43")

# Reference results for the bundled instances: closed-form kernel extremes,
# the published slope maximum used by the "reported" constant set, and the
# orbit initial values the reproduce command compares against.
_REF_G_MAX = 4.0 / math.sqrt(2.0 - math.sqrt(3.0))
_REF_G_MIN = 2.0 * math.sqrt(2.0 + math.sqrt(3.0)) / math.sqrt(2.0 - math.sqrt(3.0))
_REF_SLOPE = math.sqrt(2.0 - math.sqrt(3.0)) / 2.0
_REF_BPLUS = 2.0 / 3.0 + math.sqrt(3.0) / math.pi
_REPRO = {
    "4.1": {"file": "example41", "theorem": "T3.1", "x0": 399.93015},
    "4.2": {"file": "example42", "theorem": "T3.2", "x0": 399.8941},
    "4.3": {"file": "example43", "theorem": "T3.3-II", "x0": 399.9045},
}


def _g(v: float) -> str:
    return f"{v:.17g}"


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _resolve(fileref: str) -> LoadedProblem:
    if os.path.exists(fileref):
        try:
            return load_problem(fileref)
        except ProblemFileError as err:
            raise _CliError(f"{fileref}: {err}", 2) from err
    stem = fileref[:-8] if fileref.endswith(".problem") else fileref
    if stem in _BUNDLED:
        text = (resources.files("periorbit") / "problems"
                / f"{stem}.problem").read_text(encoding="utf-8")
        try:
            return parse_problem_text(text, name=stem)
        except ProblemFileError as err:  # pragma: no cover - bundled files parse
            raise _CliError(f"{stem}: {err}", 2) from err
    raise _CliError(
        f"{fileref}: no such file and not a bundled instance "
        f"(bundled: {', '.join(_BUNDLED)})", 2)


def _out_dir(args) -> str:
    out = args.out or os.environ.get("PERIORBIT_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _stem(problem: LoadedProblem) -> str:
    base = os.path.basename(problem.name)
    return base[:-8] if base.endswith(".problem") else base


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _np_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True,
                      default=_np_default) + "\n"


# ---------------------------------------------------------------------------
# check


def _certificate_report(problem: LoadedProblem, cert: Certificate) -> str:
    spec = problem.spec
    lines = [
        f"instance: {_stem(problem)}",
        f"sha256: {problem.sha256}",
        f"omega = {_g(spec.omega)}  rho1 = {_g(spec.rho1)}  "
        f"rho2 = {_g(spec.rho2)}  alpha = {_g(cert.alpha)}",
    ]
    if cert.greens is not None:
        gf = cert.greens
        lines.append(f"kernel: {gf.source}  positive: "
                     f"{'yes' if gf.positive else 'no'}  "
                     f"g_max = {_g(gf.g_max)}  g_min = {_g(gf.g_min)}")
    for v in cert.positivity_checks:
        state = ("holds" if v.holds else
                 "fails" if v.applicable else "not applicable")
        qty = "  ".join(f"{k} = {_g(x)}" for k, x in sorted(v.quantities.items()))
        lines.append(f"positivity {v.criterion}: {state}  {qty}".rstrip())
        if v.notes:
            lines.append(f"  note: {v.notes}")
    lines.append(f"positivity source: {cert.positivity_source or 'none'}")
    lines.append(f"theorem: {cert.theorem}")
    for ev in (cert.computed, cert.reported):
        if ev is None:
            continue
        k = ev.constants
        lines.append(f"[{k.label}] gt_max = {_g(k.gt_max)}  "
                     f"sigma = {_g(k.sigma)}  delta = {_g(k.delta)}")
        for name, chk in sorted(ev.checks.items()):
            if hasattr(chk, "lower"):
                lo_br = "(" if chk.strict_lower else "["
                lines.append(f"  {name}: r in {lo_br}{_g(chk.lower)}, "
                             f"{_g(chk.upper)}]  "
                             f"{'ok' if chk.ok else 'empty'}")
            else:
                lines.append(f"  {name}: value = {_g(chk.value)} "
                             f"{'<' if chk.ok else '>='} 1  "
                             f"{'ok' if chk.ok else 'fails'}")
        rw = ev.r_witness
        if rw.found:
            lines.append(f"  R witness: {_g(rw.R)}  lhs(R) = {_g(rw.lhs_at_R)}"
                         f"  bracketed: {rw.boundary_bracketed}")
        else:
            lines.append("  R witness: none found below cap")
        if ev.reason:
            lines.append(f"  reason: {ev.reason}")
    lines.append(f"verdict: {'TRUE' if cert.verdict else 'FALSE'}"
                 + (f"  ({cert.reason})" if cert.reason else ""))
    return "\n".join(lines) + "\n"


def _cmd_check(args) -> int:
    problem = _resolve(args.file)
    cert = certify(problem.spec, a1=problem.a1)
    doc = cert.to_dict()
    doc["instance"] = {"name": _stem(problem), "sha256": problem.sha256,
                       "omega": problem.spec.omega,
                       "rho1": problem.spec.rho1, "rho2": problem.spec.rho2}
    out = _out_dir(args)
    _write(os.path.join(out, f"{_stem(problem)}.certificate.json"),
           _json_text(doc))
    if args.json:
        sys.stdout.write(_json_text(doc))
    else:
        sys.stdout.write(_certificate_report(problem, cert))
    return 0 if cert.verdict else 1


# ---------------------------------------------------------------------------
# greens


def _cmd_greens(args) -> int:
    problem = _resolve(args.file)
    spec = problem.spec
    l = spec.q.scaled(1.0 / alpha_exponent(spec.rho1))
    try:
        gf = kernel_for(spec.p, l, spec.omega, n=args.n)
    except ResonanceError as err:
        sys.stderr.write(f"resonance: {err}\n")
        return 1
    lines = [f"# instance = {_stem(problem)}",
             f"# sha256 = {problem.sha256}",
             f"# source = {gf.source}",
             f"# n = {gf.n}"]
    for key, val in gf.constants().items():
        lines.append(f"# {key} = {val if isinstance(val, (bool, str)) else _g(val)}")
    header = "\n".join(lines) + "\nt,s,G,Gt\n"
    rows = []
    for i, ti in enumerate(gf.t):
        for j, sj in enumerate(gf.t):
            rows.append(f"{_g(ti)},{_g(sj)},{_g(gf.G[i, j])},{_g(gf.Gt[i, j])}")
    csv_text = header + "\n".join(rows) + "\n"
    out = _out_dir(args)
    _write(os.path.join(out, f"{_stem(problem)}.greens.csv"), csv_text)
    for key, val in gf.constants().items():
        sys.stdout.write(
            f"{key} = {val if isinstance(val, (bool, str)) else _g(val)}\n")
    sys.stdout.write(f"rows = {(gf.n + 1) ** 2}\n")
    return 0


# ---------------------------------------------------------------------------
# solve


def _orbit_csv(problem: LoadedProblem, orbit: Orbit) -> str:
    lines = [f"# instance = {_stem(problem)}",
             f"# sha256 = {problem.sha256}",
             f"# omega = {_g(orbit.omega)}",
             f"# rho1 = {_g(problem.spec.rho1)}",
             f"# rho2 = {_g(problem.spec.rho2)}"]
    for key, val in orbit.summary().items():
        if key == "omega":
            continue
        lines.append(f"# {key} = {_g(float(val))}")
    lines.append("t,x,v")
    for t, x, v in zip(orbit.path.t, orbit.path.x, orbit.path.v):
        lines.append(f"{_g(t)},{_g(x)},{_g(v)}")
    return "\n".join(lines) + "\n"


def _solve_problem(problem: LoadedProblem, args) -> Orbit:
    tol = args.tol if args.tol is not None else (problem.tol or 1e-8)
    guess = None
    x0 = args.x0 if getattr(args, "x0", None) is not None else problem.guess_x0
    v0 = args.v0 if getattr(args, "v0", None) is not None else problem.guess_v0
    if x0 is not None:
        guess = State(t=0.0, x=float(x0),
                      v=float(v0) if v0 is not None else 0.0)
    return find_periodic(problem.spec, guess=guess, tol=tol)


def _cmd_solve(args) -> int:
    problem = _resolve(args.file)
    try:
        orbit = _solve_problem(problem, args)
    except NoConvergenceError as err:
        sys.stderr.write(f"no convergence: {err}\n")
        return 1
    except (SingularityError, IntegrationBlowUp) as err:
        sys.stderr.write(f"singularity: {err}\n")
        return 1
    out = _out_dir(args)
    stem = _stem(problem)
    _write(os.path.join(out, f"{stem}.orbit.csv"), _orbit_csv(problem, orbit))
    if args.svg:
        _write(os.path.join(out, f"{stem}.phase.svg"),
               phase_svg(orbit.path, title=f"Phase portrait ({stem})"))
        _write(os.path.join(out, f"{stem}.timeseries.svg"),
               timeseries_svg(orbit.path, title=f"Time series ({stem})"))
    doc = orbit.summary()
    if args.json:
        sys.stdout.write(_json_text(doc))
    else:
        for key, val in doc.items():
            sys.stdout.write(f"{key} = {_g(float(val))}\n")
    return 0


# ---------------------------------------------------------------------------
# reproduce


def _fixed_point_error(spec: ProblemSpec, cert: Certificate,
                       orbit: Orbit) -> float:
    ts = to_y_equation(spec)
    ty = apply_T(cert.greens, ts, orbit.y_path)
    num = (float(np.max(np.abs(orbit.y_path.x - ty.x)))
           + float(np.max(np.abs(orbit.y_path.v - ty.v))))
    return num / orbit.norm_y


def _reproduce_one(key: str, args, report: list) -> dict:
    ref = _REPRO[key]
    problem = _resolve(ref["file"])
    spec = problem.spec

    def line(text: str) -> None:
        report.append(f"[{key}] {text}")

    cert = certify(spec, a1=problem.a1)
    checks: dict[str, bool] = {}
    checks["theorem"] = cert.theorem == ref["theorem"] and cert.verdict
    line(f"theorem {cert.theorem} (reference {ref['theorem']})  "
         f"verdict {'TRUE' if cert.verdict else 'FALSE'}")

    gf = cert.greens
    checks["kernel"] = (abs(gf.g_max - _REF_G_MAX) <= 1e-6
                        and abs(gf.g_min - _REF_G_MIN) <= 1e-6)
    line(f"g_max computed {_g(gf.g_max)} reference {_g(_REF_G_MAX)}")
    line(f"g_min computed {_g(gf.g_min)} reference {_g(_REF_G_MIN)}")
    line(f"slope max computed {_g(gf.gt_max)} reference {_g(_REF_SLOPE)} "
         f"(the two disagree by design; both constant sets evaluated)")

    co, rp = cert.computed, cert.reported
    checks["h2"] = co.checks["H2"].ok and rp is not None and rp.checks["H2"].ok
    line(f"H2 computed {_g(co.checks['H2'].value)} "
         f"reported {_g(rp.checks['H2'].value)} (both < 1 required)")
    wname = next(k for k in co.checks if k != "H2")
    wc, wr = co.checks[wname], rp.checks[wname]
    checks["window"] = wc.ok and wr.ok
    line(f"{wname} computed [{_g(wc.lower)}, {_g(wc.upper)}] "
         f"reported [{_g(wr.lower)}, {_g(wr.upper)}]")
    checks["radius"] = (co.r_witness.found and co.r_witness.R > wc.lower
                        and rp.r_witness.found and rp.r_witness.R > wr.lower)
    line(f"R witness computed {_g(co.r_witness.R)} "
         f"reported {_g(rp.r_witness.R)}")

    if key == "4.3":
        bplus = spec.b.mean_positive_part()
        checks["b_plus_mean"] = abs(bplus - _REF_BPLUS) <= 1e-6
        line(f"positive-part mean of b computed {_g(bplus)} "
             f"reference {_g(_REF_BPLUS)}")

    orbit = None
    try:
        orbit = _solve_problem(problem, args)
    except (NoConvergenceError, SingularityError, IntegrationBlowUp) as err:
        checks["orbit"] = False
        line(f"orbit: FAILED ({err})")
    if orbit is not None:
        e_max = spec.e.extrema().max_value
        checks["orbit"] = (abs(orbit.initial.x - ref["x0"]) <= 0.5
                           and orbit.periodicity_residual <= orbit.tol
                           and orbit.min_x > 0.0
                           and orbit.ode_residual <= 1e-4 * e_max)
        line(f"x(0) computed {_g(orbit.initial.x)} reference {_g(ref['x0'])} "
             f"|diff| {_g(abs(orbit.initial.x - ref['x0']))}")
        line(f"v(0) computed {_g(orbit.initial.v)}  periodicity residual "
             f"{_g(orbit.periodicity_residual)}  min x {_g(orbit.min_x)}")
        line(f"plug-in residual {_g(orbit.ode_residual)} "
             f"(bound {_g(1e-4 * e_max)})")
        fp = _fixed_point_error(spec, cert, orbit)
        checks["fixed_point"] = fp <= 1e-3
        line(f"operator fixed-point relative error {_g(fp)} (bound 0.001)")
        cone = cone_check(orbit.y_path, co.constants.sigma,
                          co.constants.delta)
        line(f"cone membership {cone.in_cone}  norm {_g(cone.norm)}  "
             f"r window [{_g(wc.lower)}, {_g(co.r_witness.R)}]  "
             f"norm within window "
             f"{wc.lower <= cone.norm <= co.r_witness.R}")

    ok = all(checks.values())
    line("PASS" if ok else
         "FAIL (" + ", ".join(k for k, v in checks.items() if not v) + ")")
    result = {"checks": checks, "pass": ok,
              "theorem": cert.theorem, "verdict": cert.verdict}
    if orbit is not None:
        result["orbit"] = orbit.summary()
    return result


def _cmd_reproduce(args) -> int:
    keys = list(_REPRO) if args.id == "all" else [args.id]
    report: list[str] = []
    results = {}
    for key in keys:
        results[key] = _reproduce_one(key, args, report)
    out = _out_dir(args)
    _write(os.path.join(out, "reproduce.json"), _json_text(results))
    sys.stdout.write("\n".join(report) + "\n")
    all_ok = all(r["pass"] for r in results.values())
    sys.stdout.write(("ALL PASS" if all_ok else "FAILURES PRESENT") + "\n")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# entry points


def _add_common(parser, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # after-subcommand copies use SUPPRESS so an absent flag never
    # overwrites a value parsed in the global position
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--out", help="output directory for sidecar files "
                        "(default: $PERIORBIT_OUT or '.')",
                        **({"default": None} if not suppress else kw))
    parser.add_argument("--json", action="store_true",
                        help="print machine-readable JSON to stdout", **kw)
    parser.add_argument("--tol", type=float,
                        help="periodicity tolerance for orbit solving",
                        **({"default": None} if not suppress else kw))


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="periorbit",
        description="Existence certificates and periodic orbits for "
                    "second-order equations with inverse-power "
                    "nonlinearities.")
    _add_common(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate the existence certificate")
    p_check.add_argument("file")
    _add_common(p_check, suppress=True)
    p_check.set_defaults(fn=_cmd_check)

    p_greens = sub.add_parser("greens", help="emit the periodic kernel grid")
    p_greens.add_argument("file")
    p_greens.add_argument("--n", type=int, default=200,
                          help="grid intervals per axis (default 200)")
    _add_common(p_greens, suppress=True)
    p_greens.set_defaults(fn=_cmd_greens)

    p_solve = sub.add_parser("solve", help="compute a periodic orbit")
    p_solve.add_argument("file")
    p_solve.add_argument("--x0", type=float, default=None,
                         help="initial position guess")
    p_solve.add_argument("--v0", type=float, default=None,
                         help="initial velocity guess")
    p_solve.add_argument("--svg", action="store_true",
                         help="also write phase and time-series SVG charts")
    _add_common(p_solve, suppress=True)
    p_solve.set_defaults(fn=_cmd_solve)

    p_rep = sub.add_parser(
        "reproduce", help="re-run bundled instances against reference results")
    p_rep.add_argument("id", choices=["4.1", "4.2", "4.3", "all"])
    _add_common(p_rep, suppress=True)
    p_rep.set_defaults(fn=_cmd_reproduce)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as err:
        sys.stderr.write(f"error: {err}\n")
        return err.code
    except ResonanceError as err:
        sys.stderr.write(f"resonance: {err}\n")
        return 1
    except EvalDomainError as err:
        sys.stderr.write(f"domain error: {err}\n")
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
