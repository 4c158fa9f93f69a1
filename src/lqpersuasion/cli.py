"""Batch front end: instance ingestion, program solving, sweeps, examples.

Instance files are JSON (schema_version "1"), matrices row-major arrays of
arrays.  All numeric output is serialized with 17 significant digits, LF
newlines, UTF-8 — identical inputs produce byte-identical outputs.  Each
array of a record, and each CSV line, is written by one ``%``-format; the
argument parser is built once per process, on the first ``main`` call.

Exit codes: 0 success, 2 malformed input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import evaluator, instance as inst, programs
from .errors import InputError, InvalidParameter, InvalidTolerance, NumericalError

PROGRAMS = ("bp", "pp", "uop", "pop", "spop")


# --------------------------------------------------------------------------
# serialization (17 significant digits, deterministic)
# --------------------------------------------------------------------------


def _fmt(x: float) -> str:
    """17 significant digits; nan, inf and -inf as Python spells them."""
    return format(float(x), ".17g")


def _dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON text; a 2-D array is written a row per line.

    The pieces of the text go to one list, joined once.  An array is written
    in one pass, one ``%``-format of all its entries laid out by ``_layout``,
    once per indent: the memo keeps it, so that no other object takes its
    id, next to its text (a ``solve --program all`` record writes each
    projection twice, and BP's and UOP's are one).
    """
    out: list[str] = []
    _dump(obj, indent, out, {})
    return "".join(out)


def _dump(obj, indent: int, out: list[str], memo: dict) -> None:
    """Append the pieces of ``_dump_json(obj, indent)`` to ``out``."""
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        key = (id(obj), indent)
        if key not in memo:
            vals = obj.astype(float).ravel().tolist()
            if np.isfinite(obj).all():
                text = _layout(obj.shape, pad, "%.17g") % tuple(vals)
            else:
                text = _layout(obj.shape, pad, "%s") % tuple(map(_scalar, vals))
            memo[key] = obj, text
        out.append(memo[key][1])
    elif isinstance(obj, dict) and obj:
        sep = "{\n"
        for k, v in obj.items():
            out.append(f"{sep}{pad}  {json.dumps(k)}: ")
            _dump(v, indent + 1, out, memo)
            sep = ",\n"
        out.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)) and any(
            isinstance(v, (dict, list, tuple, np.ndarray)) for v in obj):
        sep = "[\n"
        for v in obj:
            out.append(f"{sep}{pad}  ")
            _dump(v, indent + 1, out, memo)
            sep = ",\n"
        out.append(f"\n{pad}]")
    elif isinstance(obj, (list, tuple)):
        out.append("[" + ", ".join(map(_scalar, obj)) + "]")
    else:
        out.append(_scalar(obj))


def _layout(shape: tuple, pad: str, spec: str) -> str:
    """The format string of an array of ``shape`` written at indent ``pad``:
    ``spec`` once per entry, a row of the last axis per line."""
    if len(shape) == 1:
        return "[" + ", ".join([spec] * shape[0]) + "]"
    row = pad + "  " + _layout(shape[1:], pad + "  ", spec)
    return "[\n" + ",\n".join([row] * shape[0]) + f"\n{pad}]" if shape[0] else "[]"


def _scalar(obj) -> str:
    """JSON text of a scalar or an empty dict."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no literal for nan or +-inf: those are written as strings
        x = float(obj)
        return _fmt(x) if math.isfinite(x) else f'"{_fmt(x)}"'
    if obj is None:
        return "null"
    return json.dumps(obj)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_bytes(text.encode("utf-8"))


# --------------------------------------------------------------------------
# instance ingestion
# --------------------------------------------------------------------------


class InstanceFileError(InputError):
    """Malformed instance file (reported with field diagnostics, exit 2)."""


def _req(d: dict, key: str, where: str):
    if key not in d:
        raise InstanceFileError(f"missing field {key!r} in {where}")
    return d[key]


def _obj(x, where: str) -> dict:
    if not isinstance(x, dict):
        raise InstanceFileError(f"{where} must be an object")
    return x


def _num(x, where: str, integer: bool = False) -> float:
    """A finite JSON number (a bool, which Python counts as an int, is not);
    with ``integer``, one of integral value."""
    try:  # an integer beyond the float range overflows
        ok = not isinstance(x, bool) and math.isfinite(x) and (not integer or x == int(x))
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise InstanceFileError(f"field {where} must be {kind}, got {x!r:.40}")
    return float(x)


def _np(x, where: str) -> np.ndarray:
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceFileError(f"field {where} is not numeric: {exc}") from None
    if not np.all(np.isfinite(a)):
        raise InstanceFileError(f"field {where} has non-finite entries")
    return a


def _square(x, where: str, size: int, dim: str) -> np.ndarray:
    """Field ``where`` as a size x size matrix (``dim`` names size); read
    before any default sized from n, which a huge integral n overflows."""
    a = _np(x, where)
    if a.shape != (size, size):
        raise InstanceFileError(f"field {where} has shape {a.shape}, not ({dim}, {dim})")
    return a


def parse_instance(path: str):
    """Read an instance file; returns (QuadraticForm, hypothesis, PriorSpec)."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceFileError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InstanceFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    _obj(doc, f"{path}: the top level")
    if str(doc.get("schema_version")) != "1":
        raise InstanceFileError(f"{path}: unsupported schema_version "
                                f"{doc.get('schema_version')!r} (expected \"1\")")
    n = int(_num(_req(doc, "n", "instance"), "n", integer=True))
    if n < 1:
        raise InstanceFileError("field 'n' must be a positive integer")

    forms = [k for k in ("raw", "reduced") if k in doc]
    if len(forms) != 1:
        raise InstanceFileError("exactly one of 'raw' or 'reduced' must be present")
    if forms[0] == "reduced":
        red = _obj(doc["reduced"], "field 'reduced'")
        qf = inst.QuadraticForm(
            n=n,
            Q=_square(_req(red, "Q", "reduced"), "reduced.Q", 2 * n, "2n"),
            l=_np(red.get("l", [0.0] * (2 * n)), "reduced.l"),
            r=_num(red.get("r", 0.0), "reduced.r"),
        )
    else:
        rg = _obj(doc["raw"], "field 'raw'")
        k = int(_num(_req(rg, "k", "raw"), "raw.k", integer=True))
        game = inst.RawGame(
            n=n, k=k,
            M=_square(_req(rg, "M", "raw"), "raw.M", n + k, "n+k"),
            p=_np(rg.get("p", [0.0] * (n + k)), "raw.p"),
            q=_num(rg.get("q", 0.0), "raw.q"),
            B=_np(_req(rg, "B", "raw"), "raw.B"),
            b=_np(rg.get("b", [0.0] * k), "raw.b"),
        )
        qf = inst.decompose_nonneg(game)

    hyp_doc = _obj(_req(doc, "hypothesis", "instance"), "field 'hypothesis'")
    if len(hyp_doc) != 1:
        raise InstanceFileError("'hypothesis' must hold exactly one builder key")
    (kind, params), = hyp_doc.items()

    def param(key: str, required: bool = True) -> float | None:
        """Number ``key`` of the builder's object; None if optional and absent or null."""
        fields = _obj(params, f"field 'hypothesis.{kind}'")
        if not required and fields.get(key) is None:
            return None
        return _num(_req(fields, key, kind), f"{kind}.{key}")

    if kind == "matrix":
        hyp = inst.EllipsoidalHypothesis(C=_np(params, "hypothesis.matrix"))
    elif kind == "scaled_identity":
        hyp = inst.hypothesis_wasserstein(_num(params, "hypothesis.scaled_identity"), n)
    elif kind == "wasserstein":
        hyp = inst.hypothesis_wasserstein(param("epsilon"), n)
    elif kind == "costly_update":
        eps = param("epsilon")  # params is an object from here on
        r = _np(_req(params, "R", kind), "costly_update.R")
        hyp = inst.hypothesis_costly_update(r, n, eps)
    elif kind == "mismatched_prior":
        hyp = inst.hypothesis_mismatched_prior(
            param("epsilon"), n, param("trace_sigma_bound", required=False))
    elif kind == "affine_distortion":
        hyp = inst.hypothesis_affine_distortion(param("chi"), param("epsilon"), n)
    else:
        raise InstanceFileError(f"unknown hypothesis kind {kind!r}")

    prior_doc = _obj(doc.get("prior", {"family": "gaussian", "n": n}), "field 'prior'")
    prior = inst.PriorSpec(
        family=str(_req(prior_doc, "family", "prior")),
        n=int(_num(prior_doc.get("n", n), "prior.n", integer=True)),
    )
    if prior.n != n:
        raise InstanceFileError("prior dimension differs from instance dimension")
    return qf, hyp, prior


def _base_hypothesis(hyp: inst.EllipsoidalHypothesis) -> np.ndarray:
    """The sweep's unit-scale shape matrix C0 (scale stripped when known)."""
    if hyp.base is not None:
        return hyp.base
    return hyp.C


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _load(args):
    """(qf, hyp, prior, dc0, ps, rho) of ``args.instance``, derived once at C0;
    the default rho reads the BP value, which does not depend on the scale."""
    qf, hyp, prior = parse_instance(args.instance)
    dc0 = inst.derive_coefficients(
        qf, inst.EllipsoidalHypothesis(C=_base_hypothesis(hyp))
    )
    ps = inst.prior_stats(prior)
    rho = args.rho if args.rho is not None else programs.default_rho(dc0)
    if not rho > 0.0:
        raise InvalidTolerance(f"--rho must be positive, got {rho}")
    return qf, hyp, prior, dc0, ps, rho


def cmd_solve(args) -> int:
    _, hyp, _, dc0, ps, rho = _load(args)
    dc = dc0 if hyp.base is None else dc0.scaled(hyp.scale)
    names = PROGRAMS if args.program == "all" else (args.program,)

    solvers = {
        "bp": lambda: programs.solve_bp(dc),
        "pp": lambda: programs.solve_pp(dc, rho),
        "uop": lambda: programs.solve_uop(dc),
        "pop": lambda: programs.solve_pop(dc, ps, rho),
        "spop": lambda: programs.solve_spop(dc, ps, rho),
    }
    results = []
    for name in names:
        sol = solvers[name]()
        results.append(
            {
                "program": sol.program,
                "value": sol.value,
                "rank": sol.rank,
                "rho": sol.rho,
                # every program's optimum is projective: Sigma = P
                "Sigma": sol.projection,
                "projection": sol.projection,
            }
        )

    s_raw = programs.pessimistic_noinfo_threshold(dc)
    record = {
        "schema_version": "1",
        "rho": rho,
        "coefficients": {
            "D": dc.D,
            "E": dc.E,
            "f": dc.f,
            "c": dc.c,
            "lambda_bar": dc.lambda_bar,
            "lambda_bar_2": dc.lambda_bar_2,
            "t_bar": dc.t_bar,
        },
        "pessimistic_noinfo_threshold": {
            "raw_inequality_solution_s": s_raw,
            "reading_eps_equals_s": s_raw,
            "reading_eps_equals_sqrt_s": math.sqrt(s_raw)
            if math.isfinite(s_raw)
            else s_raw,
        },
        "results": results,
    }
    _write_text(args.out, _dump_json(record) + "\n")
    return 0


def _csv_rows(rows, mc) -> str:
    """The sweep CSV; ``mc``, if given, holds one Monte-Carlo estimate per row."""
    header = "epsilon,val_uop,val_pop,val_spop,val_pp,val_2uop,rank_pp"
    # one %-format per line: '%.17g' spells nan and +-inf as _fmt does
    line = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s"
    if mc is not None:
        header += ",mc_true_mean,mc_true_stderr"
        line += ",%.17g,%.17g"
    lines = [header]
    for i, r in enumerate(rows):
        vals = (r.epsilon, r.val_uop, r.val_pop, r.val_spop, r.val_pp, r.val_2uop, r.rank_pp)
        if mc is not None:
            vals += (mc[i].mean, mc[i].stderr)
        lines.append(line % vals)
    return "\n".join(lines) + "\n"


def _eps_grid(args) -> list:
    """--steps points from --eps-lo to --eps-hi; --eps-lo alone for one step."""
    if args.steps == 1:
        return [args.eps_lo]
    return list(np.linspace(args.eps_lo, args.eps_hi, args.steps))


def cmd_sweep(args) -> int:
    qf, hyp, prior, dc_base, ps, rho = _load(args)
    if args.steps < 1:
        raise InstanceFileError("--steps must be >= 1")
    # checked before any row is solved, not by dc.scaled at the row it breaks
    # or by mc_true_cost after the sweep
    if not (0.0 <= args.eps_lo < math.inf and 0.0 <= args.eps_hi < math.inf):
        raise InvalidParameter("--eps-lo and --eps-hi must be finite and nonnegative")
    if args.mc_samples is not None:
        evaluator.check_sampling(args.mc_samples, args.mc_seed)
    grid = _eps_grid(args)
    rows = programs.sweep(dc_base, ps, grid, rho)
    mc = None
    if args.mc_samples is not None:
        # the true cost of the projection at which the row scores PP
        C0 = _base_hypothesis(hyp)
        mc = [
            evaluator.mc_true_cost(
                qf, r.epsilon * C0, prior, r.projection_pp,
                n_samples=args.mc_samples, seed=args.mc_seed,
            )
            for r in rows
        ]
    _write_text(args.out, _csv_rows(rows, mc))
    return 0


def cmd_example(args) -> int:
    if args.n < 1 or args.steps < 1:
        raise InvalidParameter("--n and --steps must be >= 1")
    if not (math.isfinite(args.eps_lo) and math.isfinite(args.eps_hi)):
        raise InvalidParameter("--eps-lo and --eps-hi must be finite")
    grid = _eps_grid(args)
    # the scalar game is the tracking example at n = 1
    n = 1 if args.which == "oned" else args.n
    try:
        triple = evaluator.opening_thresholds(args.k, n)
        rows = [(e, evaluator.opening_table(args.k, n, float(e))) for e in grid]
        values = [*vars(triple).values(), *(v for _, r in rows for v in r.values())]
    except OverflowError:
        values = [math.inf]
    # the inputs are finite here, so a non-finite value is an overflow
    if not all(map(math.isfinite, values)):
        raise InvalidParameter(
            f"the closed forms overflow at --k {args.k}, --n {args.n}, "
            f"--eps-lo {args.eps_lo}, --eps-hi {args.eps_hi}"
        )
    cols = ("abp_ni", "abp_fi", "pp_ni", "pp_fi", "pop_ni", "pop_fi")
    line = ",".join(["%.17g"] * (1 + len(cols)))
    lines = ["epsilon," + ",".join(cols)] + [line % (e, *[vals[c] for c in cols])
                                             for e, vals in rows]
    _write_text(args.out, "\n".join(lines) + "\n")

    sys.stdout.write(
        f"eps_minus={_fmt(triple.eps_minus)} eps_star={_fmt(triple.eps_star)} "
        f"eps_plus={_fmt(triple.eps_plus)}\n"
    )
    if args.which == "opening":
        sys.stdout.write(
            f"eps_plus_over_eps_minus={_fmt(triple.eps_plus / triple.eps_minus)}\n"
        )
        if args.out is not None:
            # radius-threshold policy scan at the top of the epsilon grid
            eps = float(grid[-1])
            gap = abs(1.0 - args.k)
            if eps > 0.0 and gap > 0.0:
                r_star = 2.0 * eps * gap / (2.0 * args.k - 1.0)
                scan = evaluator.radius_scan(
                    args.k, args.n, eps, r_star * 1.01, r_star * 4.0, 40
                )
                scan_path = str(Path(args.out).with_suffix("")) + "_radius.csv"
                scan_lines = ["R,cost"] + ["%.17g,%.17g" % rc for rc in scan]
                _write_text(scan_path, "\n".join(scan_lines) + "\n")
    return 0


# --------------------------------------------------------------------------
# argument parsing / entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqpersuasion",
        description=(
            "Solve and bound almost-Bayesian linear-quadratic persuasion "
            "programs (BP/PP/UOP/POP/SPOP) with certified suboptimality."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one or all programs")
    p_solve.add_argument("--instance", required=True, help="instance JSON path")
    p_solve.add_argument("--program", default="all", choices=PROGRAMS + ("all",))
    p_solve.add_argument("--rho", type=float, default=None,
                         help="suboptimality budget (default 1e-6*(1+|BP|))")
    p_solve.add_argument("--out", default=None, help="output path (default stdout)")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="homothetic hypothesis sweep C = eps*C0")
    p_sweep.add_argument("--instance", required=True)
    p_sweep.add_argument("--eps-lo", type=float, default=0.0)
    p_sweep.add_argument("--eps-hi", type=float, default=2.5)
    p_sweep.add_argument("--steps", type=int, default=200)
    p_sweep.add_argument("--rho", type=float, default=None)
    p_sweep.add_argument("--mc-samples", type=int, default=None)
    p_sweep.add_argument("--mc-seed", type=int, default=0)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_ex = sub.add_parser("example", help="closed-form tables and thresholds")
    p_ex.add_argument("--which", required=True, choices=("oned", "opening"))
    p_ex.add_argument("--k", type=float, default=2.0)
    p_ex.add_argument("--n", type=int, default=1)
    p_ex.add_argument("--eps-lo", type=float, default=0.0)
    p_ex.add_argument("--eps-hi", type=float, default=6.0)
    p_ex.add_argument("--steps", type=int, default=61)
    p_ex.add_argument("--out", default=None)
    p_ex.set_defaults(func=cmd_example)
    return parser


_parser = None  # built by the first main call, reused by the later ones


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
