"""Command-line front end.

Commands: analyze, check-critical, variation-check, optimize, catalog.

Exit codes: 0 success; 1 invalid input (a document that cannot be read or
decoded, schema, such as a term list that is not a list, a non-finite number
or NaN/Infinity anywhere in the document, a metric not positive definite or
with cond(H) above 1e13, failed structure validation, a structure that is
not unimodular, unknown catalog name
or one that is not a string, a structure too large to allocate, a numeric
option out of its range, an optimize start metric or a variation-check
finite-difference metric that cannot be analyzed, a usage error: an unknown
option or command, a missing argument, a value argparse cannot convert);
2 numerical failure, including a metric whose unitary frame overflows and a
report, in either format, that would contain a non-finite number; 3 "not
critical" / "not converged" / "deviation above tolerance" outcomes.  A
failure writes one stderr line: ``error: ...`` for exit 1, ``numerical
failure: ...`` for exit 2.

Input documents are JSON with exactly one of:
  * ``"catalog": "<name>"``
  * ``"n"`` plus ``"C"``/``"D"`` term lists ``{"up": j, "lo": [i, k],
    "re": x, "im": y}`` (1-based indices)
  * ``"real_algebra": {"dim": 2n, "f": [{"up": c, "lo": [a, b],
    "val": x}], "J": [[...]]}``
where ``n``, ``dim`` and every index are JSON integers (``2.0``, ``true``
and ``"2"`` are rejected)
plus an optional ``"metric"`` given as an n x n array of [re, im] pairs
(default: identity).

A report is one dict: ``build_report`` places the torsion tensors as numpy
arrays and takes the ``classification`` and ``residuals`` blocks as
``classifiers.classify`` and ``functionals.residual_report`` return them;
``optimize`` adds the ``optimization`` block as ``optimizer.minimize``
returns it, plus the ``seed``.
``emit`` is the one encoder.  Its JSON output is the bytes of
``json.dumps(report, sort_keys=True, indent=2)`` with every array as nested
[re, im] pairs: it writes the report's dicts and lists, the echoed input
document included, level by level, fills each array's layout template
(fixed by its shape and nesting level) with the repr of its floats, and
writes each scalar as json does.  The text output formats the arrays
directly, after the JSON encoding has checked that every number is finite.

``--tol`` is the one tolerance input; its default is
``tensor_algebra.DEFAULT_TOL`` (shown in ``--help``).  Seeded randomness
uses numpy's default_rng (PCG64), so traces are reproducible across
platforms.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from . import classifiers as cl
from . import functionals as fn
from . import lie_hermitian as lh
from . import optimizer as op
from . import tensor_algebra as ta
from . import torsion_engine as te
from .errors import (HermlabError, InvalidStartPoint, NotPositiveDefinite, NumericalFailure,
                     SingularFrame, UnknownCatalogEntry)

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_NOT_SATISFIED = 3


class InputError(HermlabError):
    """Schema-level problem with an input document, or an unusable option."""


# ---------------------------------------------------------------------------
# input parsing


def _parse_metric(doc, n):
    if "metric" not in doc or doc["metric"] is None:
        return np.eye(n)
    m = doc["metric"]
    try:
        if len(m) != n or any(len(row) != n for row in m):
            raise InputError(f"metric must be {n}x{n}")
        return np.array([[complex(c[0], c[1]) for c in row] for row in m])
    except (TypeError, IndexError, KeyError) as exc:
        raise InputError(f"metric entries must be [re, im] pairs: {exc}") from exc


def _integer(value):
    """A JSON integer as it was written: a float or a bool raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not an integer: {value!r}")
    return value


def _read_terms(entries, size, name, value):
    """0-based (up, i, k, value(entry)) of each ``{"up", "lo"}`` term entry."""
    if not isinstance(entries, list):
        raise InputError(f"{name} must be a list of terms")
    for entry in entries:
        try:
            up = _integer(entry["up"])
            i, k = (_integer(v) for v in entry["lo"])
            val = value(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed {name} entry: {entry!r}") from exc
        for idx in (up, i, k):
            if not 1 <= idx <= size:
                raise InputError(f"{name} index out of range 1..{size}: {entry!r}")
        yield up - 1, i - 1, k - 1, val


def _complex_value(entry):
    return complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))


def _parse_tensor_terms(terms, n, name):
    t = np.zeros((n, n, n), dtype=complex)
    for up, i, k, val in _read_terms(terms, n, name, _complex_value):
        t[up, i, k] = val
    return t


def parse_input(doc):
    """Build a HermitianStructure from an input document."""
    try:
        return _parse_structure(doc)
    except (ValueError, OverflowError) as exc:  # non-finite numbers, impossible sizes
        raise InputError(f"invalid input: {exc}") from exc


def _parse_structure(doc):
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    sources = [k for k in ("catalog", "real_algebra", "C") if k in doc]
    if "D" in doc and "C" not in doc:
        sources.append("D")
    if len(sources) != 1:
        raise InputError(
            "exactly one of 'catalog', 'real_algebra', or 'C'/'D' must be present"
        )

    if "catalog" in doc:
        try:
            sc = lh.catalog(doc["catalog"]).sc
        except UnknownCatalogEntry as exc:
            raise InputError(f"unknown catalog entry: {exc}") from exc
    elif "real_algebra" in doc:
        ra = doc["real_algebra"]
        try:
            dim = _integer(ra["dim"])
            J = np.array(ra["J"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("malformed real_algebra block") from exc
        f = np.zeros((dim, dim, dim))
        for c, a, b, val in _read_terms(ra.get("f", []), dim, "f", lambda e: float(e["val"])):
            f[c, a, b] = val
            f[c, b, a] = -val
        try:
            rl = lh.RealLieData(dim, f, J)
            sc = lh.complexify(rl)
        except (HermlabError, ValueError) as exc:
            raise InputError(f"real algebra rejected: {exc}") from exc
    else:
        try:
            n = _integer(doc["n"])
        except (KeyError, TypeError) as exc:
            raise InputError("an integer 'n' is required with explicit C/D input") from exc
        C = _parse_tensor_terms(doc.get("C", []), n, "C")
        D = _parse_tensor_terms(doc.get("D", []), n, "D")
        sc = lh.StructureConstants(n, C, D)
    return lh.HermitianStructure(sc, _parse_metric(doc, sc.n))


# ---------------------------------------------------------------------------
# reports


def _validation_dict(rep):
    return {
        "ok": rep.ok,
        "checks": [
            {"name": c.name, "passed": c.passed, "residual": c.residual}
            for c in rep.checks
        ],
    }


def build_report(sc, pkg, vrep, doc, tol):
    """The report of a metric on ``sc``, from its analysis ``pkg`` and the
    validation ``vrep`` of ``sc``; arrays stay numpy arrays until :func:`emit`."""
    return {
        "tool": {"name": "hermlab", "version": __version__},
        "tolerances": {"tol": tol},
        "input": doc,
        "validation": _validation_dict(vrep),
        "torsion": {
            "n": pkg.n,
            "norm_T2": pkg.norm_T2,
            "norm_eta2": pkg.norm_eta2,
            "chi": pkg.chi,
            "eta": pkg.eta,
            "A": pkg.A,
            "B": pkg.B,
            "phi": pkg.phi,
            "xi": pkg.xi,
        },
        "classification": cl.classify(pkg, sc, tol),
        "residuals": fn.residual_report(pkg),
    }


def _fmt_mat_text(m, digits=6):
    rows = []
    for row in np.asarray(m):
        rows.append(
            "  [" + ", ".join(f"{z.real:.{digits}g}{z.imag:+.{digits}g}i" for z in row) + "]"
        )
    return "\n".join(rows)


def render_text(report):
    t = report["torsion"]
    r = report["residuals"]
    c = report["classification"]
    lines = [
        f"hermlab {report['tool']['version']}",
        f"n = {t['n']}",
        f"validation ok = {report['validation']['ok']}",
        "",
        f"|T|^2   = {t['norm_T2']:.6g}",
        f"|eta|^2 = {t['norm_eta2']:.6g}",
        f"chi     = {t['chi']:.6g}",
        f"F = {r['F_value']:.6g}   G = {r['G_value']:.6g}",
        f"|Q_F| = {r['norm_Q_F']:.6g}   |Q_G| = {r['norm_Q_G']:.6g}",
        f"trace residual 4(|eta|^2 - chi) = {4.0 * (t['norm_eta2'] - t['chi']):.6g}",
        "",
        "flags:",
    ]
    for key in ("kahler", "balanced", "gauduchon", "pluriclosed", "lck_shape", "nilpotent_J", "stp"):
        lines.append(f"  {key:12s} {c[key]['flag']}")
    for name, mat in (("A", t["A"]), ("B", t["B"]), ("Q_F", r["Q_F"])):
        lines += ["", f"{name}:", _fmt_mat_text(mat)]
    if "optimization" in report:
        o = report["optimization"]
        last = o["trace"][-1]
        lines += [
            "",
            f"optimizer: converged={o['converged']} reason={o['reason']} "
            f"iterations={o['iterations']}",
            f"final objective = {last['objective']:.6g}, "
            f"final residual norm = {last['residual_norm']:.6g}",
        ]
    if "criticality" in report:
        k = report["criticality"]
        lines += [
            "",
            f"criticality: functional={k['functional']} "
            f"residual norm={k['residual_norm']:.6g} tol={report['tolerances']['tol']:g} "
            f"critical={k['critical']}",
        ]
    if "variation_check" in report:
        v = report["variation_check"]
        lines += [
            "",
            f"variation check: directions={v['directions']} "
            f"max relative deviation={v['max_relative_deviation']:.3g} "
            f"passed={v['passed']}",
        ]
    return "\n".join(lines) + "\n"


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


@functools.lru_cache(maxsize=64)
def _array_template(shape, level):
    """The indent-2 JSON layout of an array of ``shape`` at nesting ``level``,
    with a ``%r`` for each float."""
    if not shape:
        return "%r"
    if shape[0] == 0:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    item = _array_template(shape[1:], level + 1)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + "  " * level + "]"


def _array_json(a, level, key):
    """A numpy array as nested [re, im] pairs."""
    values = np.asarray(a, dtype=complex).ravel().view(float)
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)][0]
        raise NumericalFailure(f"report contains a non-finite number at {key} "
                               f"({bad} in an array of shape {a.shape})")
    return _array_template(a.shape + (2,), level) % tuple(values.tolist())


def _write_json(obj, level, key, out):
    """Append ``obj`` at nesting ``level`` to the chunk list ``out`` as
    json.dumps(sort_keys=True, indent=2) writes it: dicts and lists level by
    level, arrays from their layout template, and scalars as json writes
    them (strings ASCII-escaped, floats and ints by their ``__repr__``).
    Report dicts have string keys, and arrays sit only as dict values.  A
    non-finite number raises :class:`NumericalFailure` naming its dotted
    report ``key`` (a list's entries share the list's key); a dict's values
    are encoded in the order the report was built, so the key named is the
    first quantity to overflow, not the first in sort order.  A nesting
    level takes one stack frame, its lists and dicts are walked by loops,
    so an input document nested as deep as json reads it is echoed too."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NumericalFailure(f"report contains a non-finite number at {key}")
        out.append(float.__repr__(obj))
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, np.ndarray):
        out.append(_array_json(obj, level, key))
    elif obj is None or obj is True or obj is False:
        out.append(_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (dict, list, tuple)) and not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        parts = {}
        for k, v in obj.items():
            parts[k] = chunks = [_encode_str(k) + ": "]
            _write_json(v, level + 1, f"{key}.{k}" if key else k, chunks)
        pad = "\n" + "  " * (level + 1)
        sep = "{" + pad
        for k in sorted(parts):
            out.append(sep)
            out += parts[k]
            sep = "," + pad
        out.append("\n" + "  " * level + "}")
    elif isinstance(obj, (list, tuple)):
        pad = "\n" + "  " * (level + 1)
        sep = "[" + pad
        for v in obj:
            out.append(sep)
            _write_json(v, level + 1, key, out)
            sep = "," + pad
        out.append("\n" + "  " * level + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def emit(report, args):
    """Write ``report`` as JSON or text to ``args.output`` or stdout.  The
    JSON is encoded in both formats, as the one check that all is finite."""
    chunks = []
    _write_json(report, 0, "", chunks)
    text = "".join(chunks) + "\n"
    if args.format == "text":
        text = render_text(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def _finite_number(text):
    """A JSON number or NaN/Infinity constant as a float, finite or rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise InputError(f"input document holds a non-finite number: {text}")
    return value


def _load_structure(args):
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except (ValueError, RecursionError) as exc:
        # invalid JSON or UTF-8, an integer past Python's digit limit, or
        # nesting deeper than the decoder's recursion limit
        raise InputError(f"unreadable input document: {exc}") from exc
    hs = parse_input(doc)
    vrep = lh.validate(hs.sc)
    if not vrep.ok:
        raise InputError(
            "structure constants failed validation: "
            + ", ".join(f"{c.name}={c.residual:.3e}" for c in vrep.checks if not c.passed)
        )
    lh.require_unimodular(hs.sc)
    return hs, doc, vrep


def _random_hermitian(rng, n):
    """A seeded random Hermitian direction: (X + X*) / 2, X complex Gaussian."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / 2


def cmd_analyze(args, hs, doc, vrep):
    return build_report(hs.sc, te.analyze(hs), vrep, doc, args.tol), True


def cmd_check_critical(args, hs, doc, vrep):
    report = build_report(hs.sc, te.analyze(hs), vrep, doc, args.tol)
    norm = report["residuals"]["norm_Q_F" if args.functional == "torsion" else "norm_Q_G"]
    critical = norm <= args.tol
    report["criticality"] = {
        "functional": args.functional,
        "residual_norm": norm,
        "critical": critical,
    }
    return report, critical


# variation-check's bounds, which --tol does not move.  The Richardson
# difference of step 1e-4 is off by rounding, up to 5e-9 relative on random
# structures, a wrong variation by O(1)
_FD_REL_TOL = 1e-5
# a variation below this times max(1, F) is compared absolutely: at a
# critical metric the difference reads its rounding, which grows as eps * F
# / step, up to 1.8e-10 on sokc-4 (F = 24) and 1.6e-9 on sokc-8 (F = 336)
_FD_ABS_TOL = 1e-9


def cmd_variation_check(args, hs, doc, vrep):
    pkg = te.analyze(hs)
    floor = _FD_ABS_TOL * max(1.0, fn.torsion_functional(pkg))
    rng = np.random.default_rng(args.seed)
    worst_rel = 0.0
    passed = True
    rows = []
    for _ in range(args.directions):
        h = _random_hermitian(rng, hs.n)
        analytic = fn.first_variation(pkg, h)
        try:
            fd = fn.fd_first_variation(hs, h, step=args.fd_step)
        except (NotPositiveDefinite, SingularFrame) as exc:
            raise InputError(f"--fd-step {args.fd_step:g} gives a finite-difference metric "
                             f"that is unusable: {exc}") from exc
        dev = abs(analytic - fd)
        denom = max(abs(analytic), abs(fd))
        if denom > floor:
            rel = dev / denom
            ok = rel <= _FD_REL_TOL
            worst_rel = max(worst_rel, rel)
        else:
            ok = dev <= floor
        passed = passed and ok
        rows.append({"analytic": analytic, "fd": fd, "deviation": dev, "ok": ok})
    report = build_report(hs.sc, pkg, vrep, doc, args.tol)
    report["variation_check"] = {
        "directions": args.directions,
        "fd_step": args.fd_step,
        "seed": args.seed,
        "max_relative_deviation": worst_rel,
        "rows": rows,
        "passed": passed,
    }
    return report, passed


def cmd_optimize(args, hs, doc, vrep):
    cfg = op.OptimConfig(
        objective=args.objective,
        max_iter=args.max_iter,
        grad_tol=args.grad_tol,
        objective_tol=args.objective_tol,
    )
    S0 = None
    if args.perturb > 0:
        S0 = _random_hermitian(np.random.default_rng(args.seed), hs.n)
        S0 *= args.perturb / np.linalg.norm(S0)
    try:
        block, pkg_star = op.minimize(hs, cfg, S0=S0)
    except InvalidStartPoint as exc:
        raise InputError(f"start metric from --perturb {args.perturb:g} is unusable: {exc}") from exc
    report = build_report(hs.sc, pkg_star, vrep, doc, args.tol)
    report["optimization"] = {**block, "seed": args.seed}
    return report, block["converged"]


def cmd_catalog(args):
    if args.action == "list":
        for name in lh.catalog_names():
            sys.stdout.write(name + "\n")
        return EXIT_OK
    try:
        hs = lh.catalog(args.name)
    except UnknownCatalogEntry as exc:
        raise InputError(f"unknown catalog entry: {exc}") from exc
    sys.stdout.write(f"{args.name}: n = {hs.n}\n")
    for line in lh.structure_equations_text(hs.sc):
        sys.stdout.write("  " + line + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(p):
    p.add_argument("input", help="path to a JSON input document")
    p.add_argument(
        "--tol", type=float, default=ta.DEFAULT_TOL,
        help=f"tolerance (default {ta.DEFAULT_TOL:g})",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None, help="write the report to a file")


class _Parser(argparse.ArgumentParser):
    """A usage error exits ``EXIT_INVALID_INPUT`` with one stderr line, not
    argparse's usage block and exit 2, which here means numerical failure.
    Subparsers are built from the same class."""

    def error(self, message):
        self.exit(EXIT_INVALID_INPUT, f"error: {message}\n")


@functools.cache
def make_parser():
    """The command-line parser, built on the first call and shared after it:
    ``parse_args`` returns a new namespace each time and leaves the parser
    as it was."""
    parser = _Parser(
        prog="hermlab",
        description="Chern torsion tensors, variational residuals, and "
        "critical-metric search for left-invariant Hermitian structures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full torsion/classification/residual report")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check-critical", help="evaluate an Euler-Lagrange residual")
    _add_common(p)
    p.add_argument("--functional", choices=("torsion", "gauduchon"), default="torsion")
    p.set_defaults(func=cmd_check_critical)

    p = sub.add_parser(
        "variation-check", help="analytic first variation vs finite differences"
    )
    _add_common(p)
    p.add_argument("--directions", type=int, default=10)
    p.add_argument("--fd-step", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_variation_check)

    p = sub.add_parser("optimize", help="descend over the metric cone")
    _add_common(p)
    p.add_argument("--objective", choices=op.OBJECTIVES, default=op.OptimConfig.objective)
    p.add_argument("--max-iter", type=int, default=op.OptimConfig.max_iter)
    p.add_argument("--grad-tol", type=float, default=op.OptimConfig.grad_tol)
    p.add_argument("--objective-tol", type=float, default=op.OptimConfig.objective_tol)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb", type=float, default=0.0, help="seeded random start size")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("catalog", help="list or show named structures")
    csub = p.add_subparsers(dest="action", required=True)
    csub.add_parser("list")
    csub.add_parser("show").add_argument("name")

    return parser


# the range of each numeric option, checked once after parsing: outside it
# a command would fail deep inside its run or quietly do something else
_OPTION_RANGES = (
    ("tol", math.isfinite, "finite"),
    ("max_iter", lambda v: v >= 0, "non-negative"),
    ("grad_tol", lambda v: 0 < v < math.inf, "positive and finite"),
    ("objective_tol", math.isfinite, "finite"),
    ("perturb", lambda v: 0 <= v < math.inf, "non-negative and finite"),
    ("fd_step", lambda v: 0 < v < math.inf, "positive and finite"),
    ("directions", lambda v: v >= 1, "positive"),
    ("seed", lambda v: v >= 0, "non-negative"),
)


def _check_options(args):
    for dest, in_range, what in _OPTION_RANGES:
        value = getattr(args, dest, None)
        if value is not None and not in_range(value):
            raise InputError(f"--{dest.replace('_', '-')} must be {what}, got {value!r}")


def main(argv=None):
    """Run one command: the one place that writes a report and picks an exit code."""
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        # a non-finite result is reported once, by the report's encoder, not
        # also as floating-point warnings of the computation behind it
        with np.errstate(all="ignore"):
            if args.command == "catalog":
                return cmd_catalog(args)
            report, satisfied = args.func(args, *_load_structure(args))
            emit(report, args)
        return EXIT_OK if satisfied else EXIT_NOT_SATISFIED
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except (HermlabError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
