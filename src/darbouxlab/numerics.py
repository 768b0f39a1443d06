"""Floating-point validation: trajectories, conservation drift, Lyapunov exponent.

The exact polynomial right-hand side is compiled into flat float64 code
(plain sums of coefficient*power products, so a state with x_i = 0 yields
exactly 0.0 for a component divisible by x_i, keeping coordinate planes
invariant to the last bit).  Integration is a fixed-step classical RK4 or an
embedded Dormand-Prince 5(4) pair with a deterministic PI step controller:

    factor = 0.9 * err^(-0.7/5) * err_prev^(0.4/5), clipped to [0.2, 10]

with absolute/relative tolerances 1e-10 by default and initial step 1e-3.
The Dormand-Prince trial step (all seven stages, the 5th-order solution and
the error norm) is generated per call as one straight-line function on Python
floats, with no numpy inside the step; the Lyapunov estimate runs the same
step on the field augmented by its tangent equation.  All arithmetic is
sequential float64, so runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .darboux import EvalDomainError
from .exactcore import Poly
from .field import VectorField

SAFETY = 0.9
PI_ALPHA = 0.7 / 5.0   # exponent on the current error
PI_BETA = 0.4 / 5.0    # exponent on the previous error
FACTOR_MIN = 0.2
FACTOR_MAX = 10.0
DT_FLOOR = 1e-13


class NonFiniteStateError(RuntimeError):
    """Integration hit a non-finite state; carries the time of failure."""

    def __init__(self, t: float):
        super().__init__(f"state became non-finite near t = {t:.6g}")
        self.t = t


@dataclass
class Trajectory:
    times: np.ndarray            # strictly increasing, shape (n_points,)
    states: np.ndarray           # shape (n_points, dim)
    variables: tuple[str, ...]
    metadata: dict = dc_field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class DriftReport:
    expression_id: str
    initial_value: float
    max_abs_drift: float
    relative_drift: float

    def record(self) -> dict:
        return {
            "expression": self.expression_id,
            "initial_value": self.initial_value,
            "max_abs_drift": self.max_abs_drift,
            "relative_drift": self.relative_drift,
        }


# -- compilation of the exact RHS into float64 code --------------------------

def _float_coeff(coeff: Fraction) -> float:
    """The coefficient as a float64; one too large for it is a domain error."""
    try:
        return float(coeff)
    except OverflowError:
        raise EvalDomainError(
            f"coefficient {coeff} is too large for a float64") from None


def _term_source(coeff: Fraction, mono: tuple, names: Sequence[str]) -> str:
    parts = [repr(_float_coeff(coeff))]
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}**{e}")
    return "*".join(parts)


def _poly_source(p: Poly, names: Sequence[str]) -> str:
    if not p.terms:
        return "0.0"
    ordered = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]))
    return " + ".join(_term_source(c, m, names) for m, c in ordered)


def _names(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def _field_sources(X: VectorField) -> list[str]:
    """Component i of the field as a float expression in v0, v1, ..."""
    names = _names(len(X.variables))
    return [_poly_source(comp, names) for comp in X.components]


def compile_rhs(X: VectorField) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """Compile the field into rhs(t, state, out) -> out, pure float64."""
    lines = ["def _rhs(t, s, out):"]
    for i, name in enumerate(_names(len(X.variables))):
        lines.append(f"    {name} = s[{i}]")
    for i, source in enumerate(_field_sources(X)):
        lines.append(f"    out[{i}] = {source}")
    lines.append("    return out")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["_rhs"]


def jacobian_polys(X: VectorField) -> list[list[Poly]]:
    return [[comp.diff(v) for v in X.variables] for comp in X.components]


def compile_jacobian(X: VectorField) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """Compile the analytic Jacobian into jac(t, state, out) -> out (n x n)."""
    names = _names(len(X.variables))
    lines = ["def _jac(t, s, out):"]
    for i, name in enumerate(names):
        lines.append(f"    {name} = s[{i}]")
    for i, row in enumerate(jacobian_polys(X)):
        for j, entry in enumerate(row):
            lines.append(f"    out[{i}, {j}] = {_poly_source(entry, names)}")
    lines.append("    return out")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["_jac"]


def jacobian_at(X: VectorField, state: Sequence[float]) -> np.ndarray:
    out = np.empty((len(X.variables), len(X.variables)), dtype=float)
    return compile_jacobian(X)(0.0, np.asarray(state, dtype=float), out)


def _tangent_sources(X: VectorField) -> list[str]:
    """Row i of J(x) w, for x in v0..v(n-1) and w in vn..v(2n-1).

    The nonzero Jacobian entries are multiplied into w and summed left to
    right.
    """
    n = len(X.variables)
    names = _names(n)
    rows = []
    for row in jacobian_polys(X):
        terms = [f"({_poly_source(entry, names)})*v{n + j}"
                 for j, entry in enumerate(row) if entry.terms]
        rows.append(" + ".join(terms) or "0.0")
    return rows


# -- integrators --------------------------------------------------------------

# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the next step's first)
_DP_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_DP_ERR = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
           -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)


def _dp_source(sources: Sequence[str], rtol: float, atol: float) -> str:
    """Source of `_f(y) -> k` and `_trial(dt, y, k1) -> (err, y_new, k7)`.

    `sources[i]` is component i of the right-hand side in v0, v1, ...; states
    and stages are tuples of floats.  Each stage argument is accumulated left
    to right, w_i = y_i + (dt*a_j0)*k_j0_i + ..., skipping zero coefficients,
    and the error norm sums its squares in component order, which is what
    the same operations on float64 vectors give (numpy's sum is sequential
    below 8 elements).  A trial state that is not finite returns err = inf.
    """
    n = len(sources)

    def row(prefix: str) -> str:
        return ", ".join(f"{prefix}{i}" for i in range(n)) + ","

    lines = ["def _f(y):",
             f"    {row('v')} = y",
             f"    return ({', '.join(sources)},)",
             "",
             "def _trial(dt, y, k1):",
             f"    {row('y')} = y",
             f"    {row('k1_')} = k1"]
    for s, a_row in enumerate(_DP_A, start=2):       # stage s from k1..k(s-1)
        used = [j for j, a in enumerate(a_row, start=1) if a != 0.0]
        lines += [f"    h{s}{j} = dt*{a_row[j - 1]!r}" for j in used]
        for i in range(n):
            terms = "".join(f" + h{s}{j}*k{j}_{i}" for j in used)
            lines.append(f"    v{i} = y{i}{terms}")
        lines += [f"    k{s}_{i} = {src}" for i, src in enumerate(sources)]
    # v holds the 5th-order solution: stage 7's argument (FSAL construction)
    finite = " and ".join(f"isfinite(v{i})" for i in range(n))
    lines += [f"    if not ({finite}):", "        return inf, None, None"]
    used = [j for j, e in enumerate(_DP_ERR, start=1) if e != 0.0]
    lines += [f"    d{j} = dt*{_DP_ERR[j - 1]!r}" for j in used]
    for i in range(n):
        terms = "".join(f" + d{j}*k{j}_{i}" for j in used)
        lines.append(f"    q{i} = (0.0{terms}) / "
                     f"({atol!r} + {rtol!r}*max(abs(y{i}), abs(v{i})))")
    squares = " + ".join(f"q{i}*q{i}" for i in range(n))
    lines.append(f"    return sqrt(({squares}) / {n}), ({row('v')}), "
                 f"({row('k7_')})")
    return "\n".join(lines)


class _DormandPrince:
    """Minimal deterministic embedded 5(4) stepper with a PI controller.

    `sources` are the right-hand side components as float expressions in
    v0, v1, ... (see `_field_sources`); the trial step is generated from them.
    """

    def __init__(self, sources: Sequence[str], rtol: float, atol: float,
                 dt_init: float):
        namespace = {"sqrt": math.sqrt, "isfinite": math.isfinite,
                     "inf": math.inf}
        exec(_dp_source(sources, float(rtol), float(atol)), namespace)
        self.rhs, self.trial = namespace["_f"], namespace["_trial"]
        self.dt = dt_init
        self.err_prev = 1.0
        self.k1 = None          # first stage at the current state, if known
        self.n_accepted = 0
        self.n_rejected = 0

    def advance(self, t: float, y: np.ndarray, t_stop: float,
                on_accept=None) -> float:
        """Integrate y in place from t to t_stop; returns the final time.

        The state is held as floats and written back to y before each
        on_accept(t, y) call and on exit.
        """
        rhs, trial = self.rhs, self.trial
        state, k1 = y.tolist(), self.k1
        dt_next, err_prev = self.dt, self.err_prev
        accepted = rejected = 0
        try:
            while t < t_stop:
                dt = min(dt_next, t_stop - t)
                try:
                    if k1 is None:
                        k1 = rhs(state)
                    err, y_new, k7 = trial(dt, state, k1)
                except OverflowError:   # float ** overflowed: not finite
                    err = math.inf
                if not math.isfinite(err):
                    rejected += 1
                    dt_next = dt * FACTOR_MIN
                    if dt_next < DT_FLOOR:
                        raise NonFiniteStateError(t)
                    continue
                if err <= 1.0:
                    clipped = dt < dt_next
                    t = t + dt
                    state, k1 = y_new, k7     # FSAL
                    accepted += 1
                    factor = SAFETY * (err ** -PI_ALPHA if err > 0.0 else
                                       FACTOR_MAX) * (err_prev ** PI_BETA)
                    err_prev = max(err, 1e-4)
                    if not clipped:  # a boundary-clipped step says nothing new
                        dt_next = dt * min(FACTOR_MAX, max(FACTOR_MIN, factor))
                    if on_accept is not None:
                        y[:] = state
                        on_accept(t, y)
                else:
                    rejected += 1
                    factor = SAFETY * err ** -PI_ALPHA
                    dt_next = dt * min(1.0, max(FACTOR_MIN, factor))
                    if dt_next < DT_FLOOR:
                        raise NonFiniteStateError(t)
        finally:
            y[:] = state
            self.k1, self.dt, self.err_prev = k1, dt_next, err_prev
            self.n_accepted += accepted
            self.n_rejected += rejected
        return t


def _rk4_advance(rhs, t: float, y: np.ndarray, t_stop: float, dt: float,
                 on_accept=None, counters=None) -> float:
    dim = len(y)
    k1, k2, k3, k4 = (np.empty(dim) for _ in range(4))
    work = np.empty(dim)
    with np.errstate(all="ignore"):
        return _rk4_loop(rhs, t, y, t_stop, dt, on_accept, counters,
                         k1, k2, k3, k4, work)


def _rk4_loop(rhs, t, y, t_stop, dt, on_accept, counters, k1, k2, k3, k4, work):
    while t < t_stop - 1e-15 * max(1.0, abs(t_stop)):
        h = min(dt, t_stop - t)
        rhs(t, y, k1)
        work[:] = y + (h / 2.0) * k1
        rhs(t + h / 2.0, work, k2)
        work[:] = y + (h / 2.0) * k2
        rhs(t + h / 2.0, work, k3)
        work[:] = y + h * k3
        rhs(t + h, work, k4)
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        if not np.isfinite(y).all():
            raise NonFiniteStateError(t)
        if counters is not None:
            counters[0] += 1
        if on_accept is not None:
            on_accept(t, y)
    return t


def simulate(X: VectorField, x0: Sequence[float], t_end: float,
             method: str = "dp54", rtol: float = 1e-10, atol: float = 1e-10,
             dt: float | None = None, dt_init: float = 1e-3) -> Trajectory:
    """Deterministic trajectory of the field from x0 over [0, t_end]."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    dim = len(X.variables)
    if len(x0) != dim:
        raise ValueError(f"x0 must have {dim} components")
    y = np.array([float(v) for v in x0], dtype=float)
    if not np.isfinite(y).all():
        raise NonFiniteStateError(0.0)
    times = [0.0]
    states = [y.copy()]

    def on_accept(t, state):
        times.append(t)
        states.append(state.copy())

    if method == "rk4":
        if dt is None or dt <= 0:
            raise ValueError("rk4 requires a positive fixed dt")
        counters = [0]
        _rk4_advance(compile_rhs(X), 0.0, y, t_end, dt, on_accept, counters)
        meta = {"method": "rk4", "dt": dt, "n_accepted": counters[0],
                "n_rejected": 0}
    elif method == "dp54":
        stepper = _DormandPrince(_field_sources(X), rtol, atol, dt_init)
        stepper.advance(0.0, y, t_end, on_accept)
        meta = {"method": "dp54", "rtol": rtol, "atol": atol,
                "dt_init": dt_init, "n_accepted": stepper.n_accepted,
                "n_rejected": stepper.n_rejected}
    else:
        raise ValueError(f"unknown method {method!r}")
    return Trajectory(np.array(times), np.array(states), X.variables, meta)


# -- conserved-quantity drift -------------------------------------------------

def _compile_poly(p: Poly) -> Callable[[Sequence[float]], float]:
    """p as one scalar function of a state, equal to p.evaluate_float.

    Terms are summed in dict order starting from 0.0, and each term is its
    coefficient times v**e per variable, left to right, as evaluate_float
    does, so the two agree bit for bit.
    """
    names = _names(len(p.variables))
    terms = ["0.0"]
    for mono, coeff in p.terms.items():
        powers = [f"{name}**{e}" for name, e in zip(names, mono) if e]
        terms.append("*".join([repr(_float_coeff(coeff))] + powers))
    namespace: dict = {}
    exec(f"def _p(s):\n    {', '.join(names)}, = s\n"
         f"    return {' + '.join(terms)}", namespace)
    return namespace["_p"]


def _as_evaluator(H) -> tuple[str, Callable[[Sequence[float]], float]]:
    if isinstance(H, Poly):
        return str(H), _compile_poly(H)
    if hasattr(H, "evaluate_float"):
        name = H.text() if hasattr(H, "text") else type(H).__name__
        return name, H.evaluate_float
    if callable(H):
        return getattr(H, "__name__", "callable"), H
    raise TypeError("H must be a Poly, a Darboux function, or a callable")


def conservation_drift(traj: Trajectory, H, name: str | None = None) -> DriftReport:
    """Max |H(state) - H(state_0)| along the trajectory, absolute and relative."""
    ident, evaluator = _as_evaluator(H)
    if name is not None:
        ident = name

    def finite_value(state: Sequence[float]) -> float:
        try:
            value = evaluator(state)
        except OverflowError:   # float ** overflowed: not finite
            value = math.inf
        if not math.isfinite(value):
            raise EvalDomainError(f"{ident} non-finite along the trajectory")
        return value

    states = traj.states.tolist()
    h0 = finite_value(states[0])
    max_abs = 0.0
    for state in states[1:]:
        max_abs = max(max_abs, abs(finite_value(state) - h0))
    relative = max_abs / abs(h0) if h0 != 0.0 else max_abs
    return DriftReport(ident, h0, max_abs, relative)


# -- largest Lyapunov exponent ------------------------------------------------

def lyapunov_max(X: VectorField, x0: Sequence[float], t_end: float,
                 renorm_dt: float, rtol: float = 1e-8, atol: float = 1e-8,
                 dt_init: float = 1e-3) -> float:
    """Average log stretching rate of one tangent vector along the flow.

    The state and a unit tangent vector (evolved by the analytic Jacobian)
    are integrated together; the tangent is renormalized every renorm_dt and
    the accumulated log norm divided by the total time.  Deterministic for
    fixed inputs.
    """
    if renorm_dt <= 0 or t_end <= renorm_dt:
        raise ValueError("need t_end > renorm_dt > 0")
    dim = len(X.variables)
    if len(x0) != dim:
        raise ValueError(f"x0 must have {dim} components")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    y = np.empty(2 * dim, dtype=float)
    y[:dim] = [float(v) for v in x0]
    y[dim:] = 1.0 / math.sqrt(dim)
    stepper = _DormandPrince(_field_sources(X) + _tangent_sources(X),
                             rtol, atol, dt_init)
    n_intervals = int(round(t_end / renorm_dt))
    log_sum = 0.0
    t = 0.0
    for i in range(1, n_intervals + 1):
        t = stepper.advance(t, y, i * renorm_dt)
        norm = float(np.linalg.norm(y[dim:]))
        if norm == 0.0 or not math.isfinite(norm):
            raise NonFiniteStateError(t)
        log_sum += math.log(norm)
        y[dim:] /= norm
        stepper.k1 = None  # tangent was rescaled: stage cache invalid
    return log_sum / (n_intervals * renorm_dt)


# -- CSV emission --------------------------------------------------------------

def emit_csv(traj: Trajectory, path: str | Path,
             integrals: Sequence[tuple[str, object]] = ()) -> None:
    """Write `t,<vars>[,H...]` rows, float64 with 17 significant digits, LF."""
    evaluators = [( name, _as_evaluator(H)[1]) for name, H in integrals]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = ["t", *traj.variables, *(name for name, _ in evaluators)]
        fh.write(",".join(header) + "\n")
        for t, state in zip(traj.times.tolist(), traj.states.tolist()):
            row = [f"{t:.17g}"]
            row.extend(f"{v:.17g}" for v in state)
            row.extend(f"{ev(state):.17g}" for _, ev in evaluators)
            fh.write(",".join(row) + "\n")
