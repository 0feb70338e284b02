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
2 usage (an unusable output directory or sidecar file included), parse,
or validation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterable
from importlib import resources

import numpy as np

from .expressions import EvalDomainError
# closed_form_constant and numeric_periodic_green are not called here;
# bench/spans.py rebinds them under these names
from .greens import (ResonanceError, closed_form_constant, kernel_for,
                     numeric_periodic_green)
from .hypotheses import Certificate, ProblemSpec, ValidationError, certify
from .problemfile import LoadedProblem, ProblemFileError, load_problem, \
    parse_problem_text
from .solver import (NoConvergenceError, Orbit, State, apply_T, cone_check,
                     find_periodic)
from .svgfig import phase_svg, timeseries_svg
from .transform import to_y_equation

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


def _cone_ratios(sigma: float, delta: float, positive: bool):
    """sigma and delta as printed: they mean nothing for a kernel that is
    not positive."""
    return (_g(sigma), _g(delta)) if positive else ("n/a", "n/a")


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _resolve(fileref: str, bundled_first: bool = False) -> LoadedProblem:
    """The problem in the file at path fileref, else (or, with
    bundled_first, before it) the bundled instance of that name, parsed
    and with its float ranges checked (ProblemSpec.check_ranges, a1's
    included): an error in either is reported with the key's line, exit 2."""
    stem = fileref[:-8] if fileref.endswith(".problem") else fileref
    try:
        if stem in _BUNDLED and (bundled_first
                                 or not os.path.exists(fileref)):
            text = (resources.files("periorbit") / "problems"
                    / f"{stem}.problem").read_text(encoding="utf-8")
            problem = parse_problem_text(text, name=stem)
        elif os.path.exists(fileref):
            problem = load_problem(fileref)
        else:
            raise _CliError(
                f"{fileref}: no such file and not a bundled instance "
                f"(bundled: {', '.join(_BUNDLED)})", 2)
        problem.spec.check_ranges(problem.a1)
    except ProblemFileError as err:
        raise _CliError(f"{fileref}: {err}", 2) from err
    except ValidationError as err:
        located = ProblemFileError(str(err), problem.lines.get(err.key))
        raise _CliError(f"{fileref}: {located}", 2) from err
    return problem


def _out_dir(args) -> str:
    """The directory for sidecar files, made if missing, before a command
    computes anything; a path that cannot be one, such as a file, exits 2."""
    out = args.out or os.environ.get("PERIORBIT_OUT") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as err:
        raise _CliError(f"{out}: not a usable output directory "
                        f"({err.strerror})", 2) from err
    return out


def _write(path: str, text: str | Iterable[str]) -> None:
    """Write text, one str or an iterable of str chunks written in order,
    to path; a path that cannot be written exits 2."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
    except OSError as err:
        raise _CliError(f"{path}: cannot write ({err.strerror})", 2) from err


def _finite_json(obj):
    """obj with each float that is not finite replaced by its _g string,
    "inf", "-inf" or "nan": JSON has no literal for them."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else _g(obj)
    if isinstance(obj, dict):
        return {key: _finite_json(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(val) for val in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_finite_json(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# check


def _certificate_report(problem: LoadedProblem, cert: Certificate) -> str:
    spec = problem.spec
    lines = [
        f"instance: {problem.name}",
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
        sigma, delta = _cone_ratios(k.sigma, k.delta, cert.positive)
        lines.append(f"[{k.label}] gt_max = {_g(k.gt_max)}  "
                     f"sigma = {sigma}  delta = {delta}")
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
    out = _out_dir(args)
    cert = certify(problem.spec, a1=problem.a1)
    doc = cert.to_dict()
    doc["instance"] = {"name": problem.name, "sha256": problem.sha256,
                       "omega": problem.spec.omega,
                       "rho1": problem.spec.rho1, "rho2": problem.spec.rho2}
    _write(os.path.join(out, f"{problem.name}.certificate.json"),
           _json_text(doc))
    if args.json:
        sys.stdout.write(_json_text(doc))
    else:
        sys.stdout.write(_certificate_report(problem, cert))
    return 0 if cert.verdict else 1


# ---------------------------------------------------------------------------
# greens


def _kernel_cells(values: np.ndarray, sep: str) -> list:
    """The rows of a closed-form kernel matrix as cells of the greens CSV,
    each its %.17g string with sep attached.  A closed-form kernel depends
    on t - s only, so its values repeat and each distinct one is formatted
    once.  Keying on the bits keeps -0.0 apart from 0.0.  A sort and a
    searchsorted: np.unique's inverse costs more memory."""
    bits = np.ascontiguousarray(values).view(np.int64)
    ordered = np.sort(bits, axis=None)
    new = ordered[1:] != ordered[:-1]
    uniq = np.concatenate((ordered[:1], ordered[1:][new]))
    floats = uniq.view(np.float64).tolist()
    strings = np.array([_g(v) + sep for v in floats], dtype=object)
    return strings[np.searchsorted(uniq, bits)].tolist()


def _greens_csv(problem: LoadedProblem, gf, t, G, Gt):
    """The greens CSV of the table (t, G, Gt) in chunks: its header, then
    one block of len(t) lines per grid point t, so the whole file is never
    one string.  A closed-form table joins its kernel's distinct cells,
    formatted once each; a numeric one, whose values seldom repeat,
    formats every float into a %-template, whose "%.17g" is _g's format."""
    lines = [f"# instance = {problem.name}",
             f"# sha256 = {problem.sha256}",
             f"# source = {gf.source}",
             f"# n = {len(t) - 1}"]
    for key, val in gf.constants().items():
        lines.append(f"# {key} = {val if isinstance(val, (bool, str)) else _g(val)}")
    yield "\n".join(lines) + "\nt,s,G,Gt\n"
    ts = [_g(v) for v in t.tolist()]
    if gf.source == "closed-form":
        # four strings a line: "t,", "s,", "G," and "Gt\n"
        cells = [""] * (4 * len(ts))
        cells[1::4] = [s + "," for s in ts]
        for ti, g_row, gt_row in zip(ts, _kernel_cells(G, ","),
                                     _kernel_cells(Gt, "\n")):
            cells[0::4] = [ti + ","] * len(ts)
            cells[2::4], cells[3::4] = g_row, gt_row
            yield "".join(cells)
        return
    cells = [""] * (3 * len(ts))
    cells[0::3] = ts
    for i, ti in enumerate(ts):
        cells[1::3], cells[2::3] = G[i].tolist(), Gt[i].tolist()
        yield (ti + ",%s,%.17g,%.17g\n") * len(ts) % tuple(cells)


def _cmd_greens(args) -> int:
    problem = _resolve(args.file)
    out = _out_dir(args)
    spec = problem.spec
    gf = kernel_for(spec.p, spec.l, spec.omega)
    _write(os.path.join(out, f"{problem.name}.greens.csv"),
           _greens_csv(problem, gf, *gf.table(args.n)))
    shown = gf.constants()
    shown["sigma"], shown["delta"] = _cone_ratios(gf.sigma, gf.delta,
                                                  gf.positive)
    for key, val in shown.items():
        sys.stdout.write(
            f"{key} = {val if isinstance(val, (bool, str)) else _g(val)}\n")
    sys.stdout.write(f"rows = {(args.n + 1) ** 2}\n")
    return 0


# ---------------------------------------------------------------------------
# solve


def _orbit_csv(problem: LoadedProblem, orbit: Orbit) -> str:
    lines = [f"# instance = {problem.name}",
             f"# sha256 = {problem.sha256}",
             f"# omega = {_g(orbit.omega)}",
             f"# rho1 = {_g(problem.spec.rho1)}",
             f"# rho2 = {_g(problem.spec.rho2)}"]
    for key, val in orbit.summary().items():
        if key == "omega":
            continue
        lines.append(f"# {key} = {_g(float(val))}")
    path = orbit.path
    rows = np.column_stack((path.t, path.x, path.v)).ravel().tolist()
    return ("\n".join(lines) + "\nt,x,v\n"
            + "%.17g,%.17g,%.17g\n" * len(path.t) % tuple(rows))


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
    out = _out_dir(args)
    try:
        orbit = _solve_problem(problem, args)
    except NoConvergenceError as err:
        sys.stderr.write(f"no convergence: {err}\n")
        return 1
    stem = problem.name
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
    problem = _resolve(ref["file"], bundled_first=True)
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
    except NoConvergenceError as err:
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
        in_window = wc.lower <= cone.norm <= co.r_witness.R
        checks["cone"] = cone.in_cone and in_window
        line(f"cone membership {cone.in_cone}  norm {_g(cone.norm)}  "
             f"r window [{_g(wc.lower)}, {_g(co.r_witness.R)}]  "
             f"norm within window {in_window}")

    ok = all(checks.values())
    line("PASS" if ok else
         "FAIL (" + ", ".join(k for k, v in checks.items() if not v) + ")")
    result = {"checks": checks, "pass": ok,
              "theorem": cert.theorem, "verdict": cert.verdict}
    if orbit is not None:
        result["orbit"] = orbit.summary()
    return result


def _cmd_reproduce(args) -> int:
    out = _out_dir(args)
    keys = list(_REPRO) if args.id == "all" else [args.id]
    report: list[str] = []
    results = {}
    for key in keys:
        results[key] = _reproduce_one(key, args, report)
    _write(os.path.join(out, "reproduce.json"), _json_text(results))
    sys.stdout.write("\n".join(report) + "\n")
    all_ok = all(r["pass"] for r in results.values())
    sys.stdout.write(("ALL PASS" if all_ok else "FAILURES PRESENT") + "\n")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# entry points


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, not {text!r}")
    return value


def _float_type(test, what: str):
    """argparse type of a number that passes test, named by what."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {what}, not {text!r}")
        return value

    return parse


_positive_float = _float_type(lambda v: 0.0 < v < math.inf,
                              "a finite positive number")
_finite_float = _float_type(math.isfinite, "a finite number")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # --out, --json and --tol are accepted before and after the
    # subcommand: each parser takes them from `common`, whose SUPPRESS
    # default leaves an absent flag unset, so it never overwrites one
    # given in the other position; main passes their defaults
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--out", help="output directory for sidecar files "
                        "(default: $PERIORBIT_OUT or '.')")
    common.add_argument("--json", action="store_true",
                        help="print machine-readable JSON to stdout")
    common.add_argument("--tol", type=_positive_float,
                        help="periodicity tolerance for orbit solving")
    ap = argparse.ArgumentParser(
        prog="periorbit", parents=[common],
        description="Existence certificates and periodic orbits for "
                    "second-order equations with inverse-power "
                    "nonlinearities.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, fn):
        parser = sub.add_parser(name, help=help, parents=[common])
        parser.set_defaults(fn=fn)
        return parser

    p_check = command("check", "evaluate the existence certificate",
                      _cmd_check)
    p_check.add_argument("file")

    p_greens = command("greens", "emit the periodic kernel grid",
                       _cmd_greens)
    p_greens.add_argument("file")
    p_greens.add_argument("--n", type=_positive_int, default=200,
                          help="grid intervals per axis (default 200)")

    p_solve = command("solve", "compute a periodic orbit", _cmd_solve)
    p_solve.add_argument("file")
    p_solve.add_argument("--x0", type=_finite_float, default=None,
                         help="initial position guess")
    p_solve.add_argument("--v0", type=_finite_float, default=None,
                         help="initial velocity guess")
    p_solve.add_argument("--svg", action="store_true",
                         help="also write phase and time-series SVG charts")

    p_rep = command("reproduce",
                    "re-run bundled instances against reference results",
                    _cmd_reproduce)
    p_rep.add_argument("id", choices=["4.1", "4.2", "4.3", "all"])
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(
        argv, argparse.Namespace(out=None, json=False, tol=None))
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
