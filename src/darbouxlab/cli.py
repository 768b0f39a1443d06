"""Command-line front end: one subcommand per analysis, JSON or text reports.

Reports are fully deterministic: keys are sorted, lists are in canonical
order, and no timestamps or environment data are embedded, so identical
inputs and tool version give byte-identical output.  Every certificate is
re-verified by independent exact arithmetic before it is reported; a failed
re-check is an internal error (exit code 1).  Usage, parse and file errors,
a closed stdout and requests that run out of memory exit with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .darboux import (CofactorLattice, InternalCheckError,
                      assemble_darboux_integrals,
                      certificates_from_kernels, cofactor_kernels,
                      default_lattice, obstruction_from_kernels,
                      search_darboux, search_exp_factors)
from .exactcore import PolyParseError, parse_poly
from .field import FieldParseError, VectorField, load_field
from .numerics import (EvalDomainError, NonFiniteStateError, compile_poly,
                       conservation_drift, emit_csv, lyapunov_max, simulate)
from .series import formal_integral_space, promote_parameter

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


def _field_record(X: VectorField) -> dict:
    return {
        "variables": list(X.variables),
        "degree": X.degree,
        "components": {v: str(c) for v, c in zip(X.variables, X.components)},
        "params": {k: str(v) for k, v in sorted(X.source_params.items())},
    }


def _report(command: str, X: VectorField | None, config: dict, results: dict) -> dict:
    report = {
        "tool": "darbouxlab",
        "version": __version__,
        "command": command,
        "config": config,
        "results": results,
    }
    if X is not None:
        report["field"] = _field_record(X)
    return report


def _recheck(X, certs) -> None:
    for cert in certs:
        if not cert.check(X):
            raise InternalCheckError(f"certificate {cert.record()} failed re-check")


def _recheck_functions(funcs) -> None:
    for fn in funcs:
        if not fn.cofactor_balance().is_zero():
            raise InternalCheckError("cofactor balance failed re-check")


def _lattice_from_args(X, args) -> CofactorLattice:
    return default_lattice(X, args.lattice_bound
                           if args.lattice_bound is not None else args.degree)


def cmd_darboux(X: VectorField, args) -> dict:
    lattice = _lattice_from_args(X, args)
    certs = search_darboux(X, args.degree, lattice)
    _recheck(X, certs)
    return {
        "lattice": {"generators": [str(g) for g in lattice.generators],
                    "bound": lattice.bound},
        "note": "complete relative to the lattice",
        "certificates": [c.record() for c in certs],
    }


def cmd_expfactors(X: VectorField, args) -> dict:
    certs = search_exp_factors(X, args.g_degree, args.s_bound)
    _recheck(X, certs)
    return {"factors": [c.record() for c in certs]}


def cmd_integrals(X: VectorField, args) -> dict:
    # the exponential factors first: an oversized request is refused before
    # the Darboux search runs
    efacts = search_exp_factors(X, args.g_degree, args.s_bound)
    kernels = cofactor_kernels(X, args.degree, _lattice_from_args(X, args))
    certs = certificates_from_kernels(X, kernels)
    _recheck(X, certs + efacts)
    funcs = assemble_darboux_integrals(certs, efacts)
    _recheck_functions(funcs)
    obstruction = obstruction_from_kernels(args.degree, kernels)
    return {
        "certificates": [c.record() for c in certs],
        "exp_factors": [c.record() for c in efacts],
        "darboux_first_integrals": [f.record() for f in funcs],
        "rational_obstruction": obstruction.record(),
    }


def cmd_formal(X: VectorField, args) -> dict:
    if args.promote:
        X = promote_parameter(X, args.promote)
    space = formal_integral_space(X, args.order, args.margin)
    record = space.record()
    if args.promote:
        record["promoted"] = args.promote
        record["promoted_only"] = space.depends_only_on(args.promote)
    return {"series_space": record}


def _parse_x0(text: str, dim: int) -> list[float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != dim:
        raise argparse.ArgumentTypeError(
            f"--x0 needs {dim} comma-separated components")
    return [float(p) for p in parts]


def cmd_simulate(X: VectorField, args) -> dict:
    x0 = _parse_x0(args.x0, len(X.variables))
    traj = simulate(X, x0, args.t_end, args.tol, args.dt)
    # one evaluator per observed polynomial, for its drift and the CSV
    observed = [(expr, compile_poly(parse_poly(expr, X.variables)))
                for expr in args.observe or []]
    drift = [conservation_drift(traj, H, name=name).record()
             for name, H in observed]
    if args.emit:
        try:
            emit_csv(traj, args.emit, observed)
        except OSError as exc:
            raise ValueError(f"cannot write {args.emit}: {exc}") from None
    final = traj.states[-len(X.variables):]
    return {
        "integrator": traj.metadata,
        "t_final": traj.times[-1],
        "n_points": len(traj),
        "final_state": {v: float(s) for v, s in zip(X.variables, final)},
        "drift": drift,
        "csv": args.emit or None,
    }


def cmd_lyapunov(X: VectorField, args) -> dict:
    x0 = _parse_x0(args.x0, len(X.variables))
    value = lyapunov_max(X, x0, args.t_end, args.renorm_dt, args.tol)
    return {
        "lyapunov_max": value,
        "x0": x0,
        "t_end": args.t_end,
        "renorm_dt": args.renorm_dt,
        "tol": args.tol,
    }


def cmd_analyze(X: VectorField, args) -> dict:
    results = cmd_integrals(X, args)
    space = formal_integral_space(X, args.order, args.margin)
    results["series_space"] = space.record()
    return results


def _render_text(report: dict, out) -> None:
    print(f"darbouxlab {report['version']} :: {report['command']}", file=out)
    if "field" in report:
        field = report["field"]
        print(f"field: vars {' '.join(field['variables'])}, "
              f"degree {field['degree']}", file=out)
        for v in field["variables"]:
            print(f"  d{v}/dt = {field['components'][v]}", file=out)

    def emit(value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            for k, v in value.items():
                if isinstance(v, (dict, list)):
                    print(f"{pad}{k}:", file=out)
                    emit(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}", file=out)
        elif isinstance(value, list):
            if not value:
                print(f"{pad}(none)", file=out)
            for item in value:
                if isinstance(item, (dict, list)):
                    emit(item, indent)
                    print(f"{pad}-", file=out)
                else:
                    print(f"{pad}- {item}", file=out)

    print("results:", file=out)
    emit(report["results"], 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darbouxlab",
        description="Exact Darboux-integrability analysis and numerical "
                    "validation for polynomial vector fields.")
    parser.add_argument("--version", action="version",
                        version=f"darbouxlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, degree=False, gdeg=False, formal=False, sim=False):
        p.add_argument("file", help="vector-field description file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if degree:
            p.add_argument("--degree", type=int, default=4,
                           help="degree bound for Darboux polynomials")
            p.add_argument("--lattice-bound", type=int, default=None,
                           help="cofactor lattice bound (default: --degree)")
        if gdeg:
            p.add_argument("--g-degree", type=int, default=2,
                           help="degree bound for exponential-factor numerators")
            p.add_argument("--s-bound", type=int, default=1,
                           help="per-coordinate denominator exponent bound")
        if formal:
            p.add_argument("--order", type=int, default=6,
                           help="series truncation order N")
            p.add_argument("--margin", type=int, default=2,
                           help="extra obstruction orders")
        if sim:
            p.add_argument("--x0", required=True,
                           help="initial state, comma separated")
            p.add_argument("--t-end", type=float, required=True)
            p.add_argument("--tol", type=float, default=1e-10,
                           help="absolute and relative tolerance")
        return p

    common(sub.add_parser("darboux", help="search Darboux polynomials"),
           degree=True)
    common(sub.add_parser("expfactors", help="search exponential factors"),
           gdeg=True)
    common(sub.add_parser("integrals",
                          help="assemble Darboux first integrals"),
           degree=True, gdeg=True)
    p = common(sub.add_parser("formal",
                              help="truncated formal first-integral space"),
               formal=True)
    p.add_argument("--promote", default=None,
                   help="promote a parameter to a zero-dynamics variable")
    p = common(sub.add_parser("simulate", help="integrate a trajectory"),
               sim=True)
    p.add_argument("--dt", type=float, default=None,
                   help="fixed RK4 step (default: adaptive 5(4) pair)")
    p.add_argument("--emit", default=None, help="write the trajectory CSV here")
    p.add_argument("--observe", action="append", default=[],
                   help="polynomial expression to track for drift (repeatable)")
    p = common(sub.add_parser("lyapunov",
                              help="largest Lyapunov exponent estimate"),
               sim=True)
    p.set_defaults(tol=1e-8)
    p.add_argument("--renorm-dt", type=float, default=0.5)
    common(sub.add_parser("analyze", help="run the full exact pipeline"),
           degree=True, gdeg=True, formal=True)
    return parser


_COMMANDS = {
    "darboux": cmd_darboux,
    "expfactors": cmd_expfactors,
    "integrals": cmd_integrals,
    "formal": cmd_formal,
    "simulate": cmd_simulate,
    "lyapunov": cmd_lyapunov,
    "analyze": cmd_analyze,
}


# the flags that bound a size, named in this order by a command that takes
# them when it runs out of memory
_SIZE_FLAGS = ("--degree", "--lattice-bound", "--g-degree", "--s-bound",
               "--order", "--margin", "--t-end")


def main(argv=None) -> int:
    # numpy starts an OpenBLAS worker pool when it loads; every array here
    # is int64, which BLAS never handles, so one thread is enough.  A value
    # the caller set still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        X = load_field(args.file)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FieldParseError, PolyParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        results = _COMMANDS[args.command](X, args)
    except (argparse.ArgumentTypeError, ValueError, NonFiniteStateError,
            EvalDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        results = None
    except SystemError as exc:
        # CPython 3.11 drops a MemoryError when unwinding needs memory that
        # is gone, and the caller's frame raises this SystemError instead
        if "without exception set" not in str(exc):
            raise
        results = None
    if results is None:
        # reported once the handler is left: the exception's frames, and
        # whatever they held, are freed by then
        *rest, last = [flag for flag in _SIZE_FLAGS
                       if flag[2:].replace("-", "_") in vars(args)]
        flags = f"{', '.join(rest)} or {last}" if rest else last
        print(f"error: out of memory; lower {flags}", file=sys.stderr)
        return EXIT_USAGE

    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("command",) and not callable(v)}
    report = _report(args.command, X, config, results)
    try:
        if args.format == "json":
            json.dump(report, sys.stdout, sort_keys=True, indent=2)
            sys.stdout.write("\n")
        else:
            _render_text(report, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # what stdout still buffers would fail again at exit: send it to
        # the null device instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
