"""Floating-point validation: trajectories, conservation drift, Lyapunov exponent.

The exact polynomial right-hand side is compiled into flat float64 code
(plain sums of coefficient*power products, so a state with x_i = 0 yields
exactly 0.0 for a component divisible by x_i, keeping coordinate planes
invariant to the last bit).  Integration is a fixed-step classical RK4 or an
embedded Dormand-Prince 5(4) pair with a deterministic PI step controller:

    factor = 0.9 * err^(-0.7/5) * err_prev^(0.4/5), clipped to [0.2, 10]

with one tolerance, absolute and relative (1e-10 by default), and initial
step 1e-3.  Both steps are generated per call by one stage generator as
straight-line functions on tuples of Python floats, with no numpy inside the
step; the Lyapunov estimate runs the Dormand-Prince step on the field
augmented by its tangent equation.  All arithmetic is sequential float64, so
runs are bit-reproducible.  One call takes at most MAX_STEPS trial steps (or
Lyapunov renormalisation intervals); a longer request is a ValueError.  No command runs the numpy closures of
`compile_rhs`/`compile_jacobian`/`jacobian_at`: the finite-difference
Jacobian tests and the benchmark trace use them.
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
DT_INIT = 1e-3         # first trial step of the adaptive pair
MAX_STEPS = 2_000_000  # trial steps (or Lyapunov intervals) per call


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


def _term_source(coeff: Fraction, mono: tuple) -> str:
    parts = [repr(_float_coeff(coeff))]
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"v{i}")
        elif e > 1:
            parts.append(f"v{i}**{e}")
    return "*".join(parts)


def _poly_source(p: Poly) -> str:
    if not p.terms:
        return "0.0"
    ordered = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]))
    return " + ".join(_term_source(c, m) for m, c in ordered)


def _row(prefix: str, n: int) -> str:
    """`p0, p1, ...,`: a tuple target or display of n numbered names."""
    return ", ".join(f"{prefix}{i}" for i in range(n)) + ","


def _compile(source: str) -> dict:
    """Run generated source in a fresh namespace; returns what it defined."""
    namespace = {"sqrt": math.sqrt, "isfinite": math.isfinite,
                 "inf": math.inf}
    exec(source, namespace)
    return namespace


def _field_sources(X: VectorField) -> list[str]:
    """Component i of the field as a float expression in v0, v1, ..."""
    return [_poly_source(comp) for comp in X.components]


def compile_rhs(X: VectorField) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """Compile the field into rhs(t, state, out) -> out, pure float64."""
    return _compile(f"def _rhs(t, s, out):\n    {_row('v', len(X.variables))} = s\n"
                    f"    out[:] = ({', '.join(_field_sources(X))},)\n"
                    "    return out")["_rhs"]


def jacobian_polys(X: VectorField) -> list[list[Poly]]:
    return [[comp.diff(v) for v in X.variables] for comp in X.components]


def compile_jacobian(X: VectorField) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """Compile the analytic Jacobian into jac(t, state, out) -> out (n x n)."""
    entries = [_poly_source(e) for row in jacobian_polys(X) for e in row]
    return _compile(f"def _jac(t, s, out):\n    {_row('v', len(X.variables))} = s\n"
                    f"    out.flat[:] = ({', '.join(entries)},)\n"
                    "    return out")["_jac"]


def jacobian_at(X: VectorField, state: Sequence[float]) -> np.ndarray:
    out = np.empty((len(X.variables), len(X.variables)), dtype=float)
    return compile_jacobian(X)(0.0, np.asarray(state, dtype=float), out)


def _tangent_sources(X: VectorField) -> list[str]:
    """Row i of J(x) w, for x in v0..v(n-1) and w in vn..v(2n-1).

    The nonzero Jacobian entries are multiplied into w and summed left to
    right.
    """
    n = len(X.variables)
    rows = []
    for row in jacobian_polys(X):
        terms = [f"({_poly_source(entry)})*v{n + j}"
                 for j, entry in enumerate(row) if entry.terms]
        rows.append(" + ".join(terms) or "0.0")
    return rows


# -- integrators --------------------------------------------------------------

# Butcher tableaux below the diagonal: row s-2 gives stage s from k1..k(s-1).
# Classical RK4: dt*0.5 and dt*1.0 are exactly h/2.0 and h.
_RK4_A = ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
# Dormand-Prince 5(4) (FSAL: the 7th stage is the next step's first)
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


def _stages(sources: Sequence[str], tableau) -> list[str]:
    """Lines computing stages 2.. of an explicit Runge-Kutta step from y, k1.

    `sources[i]` is component i of the right-hand side in v0, v1, ....  Each
    stage argument v_i = y_i + (dt*a_j0)*k_j0_i + ... is summed left to right,
    skipping zero coefficients, as the same float64 vector operations do.
    """
    lines = []
    for s, a_row in enumerate(tableau, start=2):
        used = [j for j, a in enumerate(a_row, start=1) if a != 0.0]
        lines += [f"    h{s}{j} = dt*{a_row[j - 1]!r}" for j in used]
        for i in range(len(sources)):
            terms = "".join(f" + h{s}{j}*k{j}_{i}" for j in used)
            lines.append(f"    v{i} = y{i}{terms}")
        lines += [f"    k{s}_{i} = {src}" for i, src in enumerate(sources)]
    return lines


def _rk4_source(sources: Sequence[str]) -> str:
    """Source of `_step(dt, y) -> y_new`, one classical RK4 step on tuples.

    The update is y_i + h6*(k1_i + 2.0*k2_i + 2.0*k3_i + k4_i) with
    h6 = dt/6.0, the float64 vector update's operations in its order.  A
    result that is not finite returns None.
    """
    n = len(sources)
    lines = ["def _step(dt, y):",
             f"    {_row('y', n)} = y",
             f"    {_row('v', n)} = y"]
    lines += [f"    k1_{i} = {src}" for i, src in enumerate(sources)]
    lines += _stages(sources, _RK4_A)
    lines.append("    h6 = dt/6.0")
    lines += [f"    v{i} = y{i} + h6*(k1_{i} + 2.0*k2_{i} + 2.0*k3_{i} + k4_{i})"
              for i in range(n)]
    finite = " and ".join(f"isfinite(v{i})" for i in range(n))
    lines += [f"    if not ({finite}):", "        return None",
              f"    return ({_row('v', n)})"]
    return "\n".join(lines)


def _dp_source(sources: Sequence[str], tol: float) -> str:
    """Source of `_f(y) -> k` and `_trial(dt, y, k1) -> (err, y_new, k7)`.

    States and stages are tuples of floats.  The error norm sums its squares
    in component order (numpy's sum is sequential below 8 elements).  `tol`
    is both the absolute and the relative tolerance.  A trial state that is
    not finite returns err = inf.
    """
    n = len(sources)
    lines = ["def _f(y):",
             f"    {_row('v', n)} = y",
             f"    return ({', '.join(sources)},)",
             "",
             "def _trial(dt, y, k1):",
             f"    {_row('y', n)} = y",
             f"    {_row('k1_', n)} = k1"]
    # v holds the 5th-order solution: stage 7's argument (FSAL construction)
    lines += _stages(sources, _DP_A)
    finite = " and ".join(f"isfinite(v{i})" for i in range(n))
    lines += [f"    if not ({finite}):", "        return inf, None, None"]
    used = [j for j, e in enumerate(_DP_ERR, start=1) if e != 0.0]
    lines += [f"    d{j} = dt*{_DP_ERR[j - 1]!r}" for j in used]
    for i in range(n):
        terms = "".join(f" + d{j}*k{j}_{i}" for j in used)
        lines.append(f"    q{i} = (0.0{terms}) / "
                     f"({tol!r} + {tol!r}*max(abs(y{i}), abs(v{i})))")
    squares = " + ".join(f"q{i}*q{i}" for i in range(n))
    lines.append(f"    return sqrt(({squares}) / {n}), ({_row('v', n)}), "
                 f"({_row('k7_', n)})")
    return "\n".join(lines)


class _DormandPrince:
    """Minimal deterministic embedded 5(4) stepper with a PI controller.

    `sources` are the right-hand side components as float expressions in
    v0, v1, ... (see `_field_sources`); the trial step is generated from them.
    """

    def __init__(self, sources: Sequence[str], tol: float):
        compiled = _compile(_dp_source(sources, float(tol)))
        self.rhs, self.trial = compiled["_f"], compiled["_trial"]
        self.dt = DT_INIT
        self.err_prev = 1.0
        self.k1 = None          # first stage at the current state, if known
        self.n_accepted = 0
        self.n_rejected = 0

    def advance(self, t: float, y: tuple, t_stop: float,
                on_accept=None) -> tuple[float, tuple]:
        """Integrate the state tuple y from t to t_stop; returns (t, y).

        on_accept(t, y) is called after every accepted step.
        """
        rhs, trial = self.rhs, self.trial
        k1, dt_next, err_prev = self.k1, self.dt, self.err_prev
        accepted = rejected = 0
        budget = MAX_STEPS - self.n_accepted - self.n_rejected
        try:
            while t < t_stop:
                if accepted + rejected >= budget:
                    raise ValueError(f"t_end needs more than {MAX_STEPS} "
                                     f"integrator steps")
                dt = min(dt_next, t_stop - t)
                try:
                    if k1 is None:
                        k1 = rhs(y)
                    err, y_new, k7 = trial(dt, y, k1)
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
                    y, k1 = y_new, k7     # FSAL
                    accepted += 1
                    factor = SAFETY * (err ** -PI_ALPHA if err > 0.0 else
                                       FACTOR_MAX) * (err_prev ** PI_BETA)
                    err_prev = max(err, 1e-4)
                    if not clipped:  # a boundary-clipped step says nothing new
                        dt_next = dt * min(FACTOR_MAX, max(FACTOR_MIN, factor))
                    if on_accept is not None:
                        on_accept(t, y)
                else:
                    rejected += 1
                    factor = SAFETY * err ** -PI_ALPHA
                    dt_next = dt * min(1.0, max(FACTOR_MIN, factor))
                    if dt_next < DT_FLOOR:
                        raise NonFiniteStateError(t)
        finally:
            self.k1, self.dt, self.err_prev = k1, dt_next, err_prev
            self.n_accepted += accepted
            self.n_rejected += rejected
        return t, y


def _require_positive(value: float, what: str) -> None:
    """Reject a zero, negative, infinite or NaN integrator input."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be positive and finite")


def simulate(X: VectorField, x0: Sequence[float], t_end: float,
             tol: float = 1e-10, dt: float | None = None) -> Trajectory:
    """Deterministic trajectory of the field from x0 over [0, t_end]: the
    adaptive Dormand-Prince pair, or fixed-step RK4 when dt is given."""
    _require_positive(t_end, "t_end")
    _require_positive(tol, "tolerances")
    if dt is not None:
        _require_positive(dt, "dt")
        if t_end / dt > MAX_STEPS:   # ceil(t_end / dt) steps
            raise ValueError(f"t_end / dt exceeds {MAX_STEPS} RK4 steps")
    dim = len(X.variables)
    if len(x0) != dim:
        raise ValueError(f"x0 must have {dim} components")
    y = tuple(float(v) for v in x0)
    if not all(map(math.isfinite, y)):
        raise NonFiniteStateError(0.0)
    times = [0.0]
    states = [y]

    def on_accept(t, state):
        times.append(t)
        states.append(state)

    if dt is None:
        stepper = _DormandPrince(_field_sources(X), tol)
        stepper.advance(0.0, y, t_end, on_accept)
        meta = {"method": "dp54", "rtol": tol, "atol": tol,
                "dt_init": DT_INIT, "n_accepted": stepper.n_accepted,
                "n_rejected": stepper.n_rejected}
    else:
        step = _compile(_rk4_source(_field_sources(X)))["_step"]
        t = 0.0
        while t < t_end - 1e-15 * max(1.0, t_end):
            h = min(dt, t_end - t)
            try:
                y = step(h, y)
            except OverflowError:   # float ** overflowed: not finite
                y = None
            t += h
            if y is None:
                raise NonFiniteStateError(t)
            on_accept(t, y)
        meta = {"method": "rk4", "dt": dt, "n_accepted": len(times) - 1,
                "n_rejected": 0}
    return Trajectory(np.array(times), np.array(states), X.variables, meta)


# -- conserved-quantity drift -------------------------------------------------

def _compile_poly(p: Poly) -> Callable[[Sequence[float]], float]:
    """p as one scalar function of a state, equal to p.evaluate_float.

    Terms are summed in dict order starting from 0.0, and each term is its
    coefficient times v**e per variable, left to right, as evaluate_float
    does, so the two agree bit for bit.
    """
    terms = ["0.0"]
    for mono, coeff in p.terms.items():
        powers = [f"v{i}**{e}" for i, e in enumerate(mono) if e]
        terms.append("*".join([repr(_float_coeff(coeff))] + powers))
    return _compile(f"def _p(s):\n    {_row('v', len(p.variables))} = s\n"
                    f"    return {' + '.join(terms)}")["_p"]


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
                 renorm_dt: float, tol: float = 1e-8) -> float:
    """Average log stretching rate of one tangent vector along the flow.

    The state and a unit tangent vector (evolved by the analytic Jacobian)
    are integrated together; the tangent is renormalized every renorm_dt and
    the accumulated log norm divided by the total time.  Deterministic for
    fixed inputs.
    """
    _require_positive(t_end, "t_end")
    _require_positive(renorm_dt, "renorm_dt")
    if t_end <= renorm_dt:
        raise ValueError("need t_end > renorm_dt > 0")
    if not math.isfinite(t_end / renorm_dt):
        raise ValueError("t_end / renorm_dt must be finite")
    n_intervals = int(round(t_end / renorm_dt))
    if n_intervals > MAX_STEPS:
        raise ValueError(f"t_end / renorm_dt exceeds {MAX_STEPS} intervals")
    dim = len(X.variables)
    if len(x0) != dim:
        raise ValueError(f"x0 must have {dim} components")
    _require_positive(tol, "tolerances")
    y = tuple(float(v) for v in x0) + (1.0 / math.sqrt(dim),) * dim
    stepper = _DormandPrince(_field_sources(X) + _tangent_sources(X), tol)
    log_sum = 0.0
    t = 0.0
    for i in range(1, n_intervals + 1):
        t, y = stepper.advance(t, y, i * renorm_dt)
        norm = float(np.linalg.norm(y[dim:]))
        if norm == 0.0 or not math.isfinite(norm):
            raise NonFiniteStateError(t)
        log_sum += math.log(norm)
        y = y[:dim] + tuple(w / norm for w in y[dim:])
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
