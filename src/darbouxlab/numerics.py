"""Floating-point validation: trajectories, conservation drift, Lyapunov exponent.

Every float64 evaluation of an exact object is here: of the field, its
Jacobian, a polynomial and a Darboux function, the last two compiled by
`compile_poly` (`EvalDomainError` where a value has no float64).  The
exact polynomial right-hand side is compiled into flat float64 code:
sums of coefficient*power products in grlex order, left to right, so a state
with x_i = 0 yields exactly 0.0 for a component divisible by x_i, keeping
coordinate planes invariant to the last bit.  The code is strength-reduced
only by rewrites that are exact under IEEE 754 (see `_evaluation`; the tests
keep the plain form as the oracle): a unit coefficient is dropped, a
negative one becomes a subtraction, each v_i**e of a stage is computed once
(with `**`, as libm pow need not round like a multiply), and so is each
product that several components or tangent rows share.  Integration is a
fixed-step classical RK4 or an embedded Dormand-Prince 5(4) pair with a
deterministic PI step controller:

    factor = 0.9 * err^(-0.7/5) * err_prev^(0.4/5), clipped to [0.2, 10]

with one tolerance, absolute and relative (1e-10 by default), and initial
step 1e-3.  Both steps are generated per call by one stage generator as
straight-line functions on tuples of Python floats; the Lyapunov estimate
runs the Dormand-Prince step on the field augmented by its tangent equation.
Every norm, of the step error and of the Lyapunov tangent, is the sqrt of
its squares summed left to right.  All arithmetic is sequential float64 on
Python floats, with no BLAS call, so runs are bit-reproducible.  One call
takes at most MAX_STEPS trial steps (or Lyapunov renormalisation intervals);
a longer request is a ValueError, and so are `EvalDomainError` and
`NonFiniteStateError`, as Python's own math domain errors are.  No command
runs the closures of `compile_rhs`/`compile_jacobian`: the finite-difference
Jacobian tests and the benchmark trace use them.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

from .exactcore import Poly, grlex_key
from .field import VectorField

SAFETY = 0.9
PI_ALPHA = 0.7 / 5.0   # exponent on the current error
PI_BETA = 0.4 / 5.0    # exponent on the previous error
FACTOR_MIN = 0.2
FACTOR_MAX = 10.0
DT_FLOOR = 1e-13
DT_INIT = 1e-3         # first trial step of the adaptive pair
MAX_STEPS = 2_000_000  # trial steps (or Lyapunov intervals) per call


class EvalDomainError(ValueError):
    """A value cannot be evaluated in floats: a Darboux function factor
    vanishes (or is negative) where forbidden, or a number is too large
    for a float64."""


class NonFiniteStateError(ValueError):
    """Integration hit a non-finite state; carries the time of failure."""

    def __init__(self, t: float):
        super().__init__(f"state became non-finite near t = {t:.6g}")
        self.t = t


class Trajectory:
    """Sampled times (strictly increasing, n_points floats) and states
    (row-major, n_points * dim floats) of one run."""

    def __init__(self, times: array, states: array,
                 variables: tuple[str, ...], metadata: dict | None = None):
        self.times = times
        self.states = states
        self.variables = variables
        self.metadata = {} if metadata is None else metadata

    def __len__(self) -> int:
        return len(self.times)

    def rows(self) -> Iterator[tuple[float, ...]]:
        """The states, one tuple of dim floats per point."""
        return zip(*[iter(self.states)] * len(self.variables))


class DriftReport(NamedTuple):
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


# A right-hand side is emitted as one sum per output.  A sum is a tuple of
# items (negative, factors), added or (when negative) subtracted left to
# right; an item is the product of its factors, left to right.  A factor is
# a float literal, a variable `v<i>`, a power `p<i>_<e>` (v<i>**e, computed
# once per evaluation) or, for a Jacobian entry of several terms times a
# tangent component, a nested sum.

def _poly_sum(p: Poly) -> tuple:
    """p's terms in grlex order: |c|, unless it is 1.0 and the term is not
    constant, then v<i> or p<i>_<e> for each variable in order."""
    items = []
    for mono, coeff in sorted(p.terms.items(), key=lambda t: grlex_key(t[0])):
        c = abs(_float_coeff(coeff))
        factors = tuple(f"v{i}" if e == 1 else f"p{i}_{e}"
                        for i, e in enumerate(mono) if e)
        if c != 1.0 or not factors:
            factors = (repr(c),) + factors
        items.append((coeff < 0, factors))
    return tuple(items)


def _products(sums: Sequence[tuple]) -> Iterator[tuple[bool, tuple]]:
    """(leading negative, factors) of every item that is not a nested sum,
    the items of nested sums included."""
    for terms in sums:
        for index, (negative, factors) in enumerate(terms):
            if isinstance(factors[0], tuple):
                yield from _products([factors[0]])
            else:
                yield negative and not index, factors


def _evaluation(sums: Sequence[tuple]) -> tuple[list[str], list[str]]:
    """Lines that compute one evaluation's powers and shared products, and
    the expression of each sum in them.

    Each rewrite of the plain form `c0 + c1*v0 + c2*v0**2*v2 + ...` is exact
    under IEEE 754: 1.0*x is x; a + (-c)*m is a - c*m, since rounding to
    nearest is sign-symmetric; a product prefix met in more than one item is
    computed once, with its factors in the same left-to-right order; each
    v<i>**e is computed once.  A leading negative item keeps its minus on
    its first factor, so no computed product is negated and even the sign
    of a NaN is kept.
    """
    count = Counter(f for lead, f in _products(sums) if not lead and len(f) > 1)
    prefixes = {f[:n]: None for f in count for n in range(2, len(f) + 1)}
    # stored when computed more than once otherwise: once per item it is,
    # once per stored extension, and once per use of an unstored extension
    stored = []
    for prefix in sorted(prefixes, key=len, reverse=True):
        if count[prefix] > 1:
            stored.append(prefix)
            count[prefix] = 1
        if len(prefix) > 2:
            count[prefix[:-1]] += count[prefix]
    names: dict[tuple, str] = {}

    def product(factors: tuple) -> str:
        for n in range(len(factors), 1, -1):
            if factors[:n] in names:
                return "*".join((names[factors[:n]],) + factors[n:])
        return "*".join(factors)

    def total(terms: tuple) -> str:
        out = ""
        for negative, factors in terms:
            if isinstance(factors[0], tuple):
                expr = f"({total(factors[0])})*{factors[1]}"
            elif negative and not out:
                expr = "-" + "*".join(factors)
            else:
                expr = product(factors)
            out = out + (" - " if negative else " + ") + expr if out else expr
        return out or "0.0"

    powers = {f for _, fs in _products(sums) for f in fs if f[0] == "p"}
    lines = [f"    {p} = v{p[1:].replace('_', '**')}" for p in
             sorted(powers, key=lambda p: tuple(map(int, p[1:].split("_"))))]
    for prefix in reversed(stored):
        lines.append(f"    m{len(names)} = {product(prefix)}")
        names[prefix] = f"m{len(names)}"
    return lines, [total(terms) for terms in sums]


def _row(prefix: str, n: int) -> str:
    """`p0, p1, ...,`: a tuple target or display of n numbered names."""
    return ", ".join(f"{prefix}{i}" for i in range(n)) + ","


def _compile(source: str) -> dict:
    """Run generated source in a fresh namespace; returns what it defined."""
    namespace = {"sqrt": math.sqrt, "isfinite": math.isfinite,
                 "inf": math.inf}
    exec(source, namespace)
    return namespace


def _field_sources(X: VectorField) -> list[tuple]:
    """Component i of the field as a sum over v0, v1, ..."""
    return [_poly_sum(comp) for comp in X.components]


def compile_rhs(X: VectorField) -> Callable:
    """Compile the field into rhs(t, state, out) -> out, pure float64."""
    lines, exprs = _evaluation(_field_sources(X))
    return _compile("\n".join([
        "def _rhs(t, s, out):", f"    {_row('v', len(X.variables))} = s",
        *lines, f"    out[:] = ({', '.join(exprs)},)", "    return out"]))["_rhs"]


def jacobian_polys(X: VectorField) -> list[list[Poly]]:
    return [[comp.diff(v) for v in X.variables] for comp in X.components]


def compile_jacobian(X: VectorField) -> Callable:
    """Compile the analytic Jacobian into jac(t, state, out) -> out, where
    out is an n x n array whose `flat` view takes the entries row by row."""
    lines, exprs = _evaluation([_poly_sum(e) for row in jacobian_polys(X)
                                for e in row])
    return _compile("\n".join([
        "def _jac(t, s, out):", f"    {_row('v', len(X.variables))} = s",
        *lines, f"    out.flat[:] = ({', '.join(exprs)},)",
        "    return out"]))["_jac"]


def _tangent_sources(X: VectorField) -> list[tuple]:
    """Row i of J(x) w, for x in v0..v(n-1) and w in vn..v(2n-1).

    The nonzero Jacobian entries are multiplied into w and summed left to
    right.  An entry of one term joins its product as the last factor, as
    (c*m)*w is c*m*w; an entry of several terms is a nested sum.
    """
    n = len(X.variables)
    rows = []
    for row in jacobian_polys(X):
        items = []
        for j, entry in enumerate(row):
            w = f"v{n + j}"
            terms = _poly_sum(entry)
            if len(terms) == 1:
                negative, factors = terms[0]
                if factors == ("1.0",):
                    factors = ()
                items.append((negative, factors + (w,)))
            elif terms:
                items.append((False, (terms, w)))
        rows.append(tuple(items))
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


def _stages(body: tuple[list[str], list[str]], tableau) -> list[str]:
    """Lines computing stages 2.. of an explicit Runge-Kutta step from y, k1.

    `body` is `_evaluation` of the right-hand side in v0, v1, ....  Each
    stage argument v_i = y_i + (dt*a_j0)*k_j0_i + ... is summed left to right,
    skipping zero coefficients, as the same float64 vector operations do.
    """
    lines, exprs = body
    out = []
    for s, a_row in enumerate(tableau, start=2):
        used = [j for j, a in enumerate(a_row, start=1) if a != 0.0]
        out += [f"    h{s}{j} = dt*{a_row[j - 1]!r}" for j in used]
        for i in range(len(exprs)):
            terms = "".join(f" + h{s}{j}*k{j}_{i}" for j in used)
            out.append(f"    v{i} = y{i}{terms}")
        out += lines
        out += [f"    k{s}_{i} = {expr}" for i, expr in enumerate(exprs)]
    return out


def _rk4_source(sources: Sequence[tuple]) -> str:
    """Source of `_step(dt, y) -> y_new`, one classical RK4 step on tuples.

    The update is y_i + h6*(k1_i + 2.0*k2_i + 2.0*k3_i + k4_i) with
    h6 = dt/6.0, the float64 vector update's operations in its order.  A
    result that is not finite returns None.
    """
    n = len(sources)
    body = _evaluation(sources)
    lines = ["def _step(dt, y):",
             f"    {_row('y', n)} = y",
             f"    {_row('v', n)} = y", *body[0]]
    lines += [f"    k1_{i} = {expr}" for i, expr in enumerate(body[1])]
    lines += _stages(body, _RK4_A)
    lines.append("    h6 = dt/6.0")
    lines += [f"    v{i} = y{i} + h6*(k1_{i} + 2.0*k2_{i} + 2.0*k3_{i} + k4_{i})"
              for i in range(n)]
    finite = " and ".join(f"isfinite(v{i})" for i in range(n))
    lines += [f"    if not ({finite}):", "        return None",
              f"    return ({_row('v', n)})"]
    return "\n".join(lines)


def _dp_source(sources: Sequence[tuple], tol: float) -> str:
    """Source of `_f(y) -> k` and `_trial(dt, y, k1) -> (err, y_new, k7)`.

    States and stages are tuples of floats.  The error norm sums its squares
    in component order, as the Lyapunov tangent norm does.  `tol` is both the
    absolute and the relative tolerance.  A trial state that is not finite
    returns err = inf.  Past that check y_i and v_i are finite, so the scale
    max(|y_i|, |v_i|) is taken by comparisons, and the error sum starts from
    its first term, not from 0.0: that can only change the sign of a zero
    numerator, which q_i*q_i drops.
    """
    n = len(sources)
    body = _evaluation(sources)
    lines = ["def _f(y):",
             f"    {_row('v', n)} = y", *body[0],
             f"    return ({', '.join(body[1])},)",
             "",
             "def _trial(dt, y, k1):",
             f"    {_row('y', n)} = y",
             f"    {_row('k1_', n)} = k1"]
    # v holds the 5th-order solution: stage 7's argument (FSAL construction)
    lines += _stages(body, _DP_A)
    finite = " and ".join(f"isfinite(v{i})" for i in range(n))
    lines += [f"    if not ({finite}):", "        return inf, None, None"]
    used = [j for j, e in enumerate(_DP_ERR, start=1) if e != 0.0]
    lines += [f"    d{j} = dt*{_DP_ERR[j - 1]!r}" for j in used]
    for i in range(n):
        terms = " + ".join(f"d{j}*k{j}_{i}" for j in used)
        lines += [f"    ay = y{i} if y{i} > 0.0 else -y{i}",
                  f"    av = v{i} if v{i} > 0.0 else -v{i}",
                  f"    q{i} = ({terms}) / "
                  f"({tol!r} + {tol!r}*(av if av > ay else ay))"]
    squares = " + ".join(f"q{i}*q{i}" for i in range(n))
    lines.append(f"    return sqrt(({squares}) / {n}), ({_row('v', n)}), "
                 f"({_row('k7_', n)})")
    return "\n".join(lines)


class _DormandPrince:
    """Minimal deterministic embedded 5(4) stepper with a PI controller.

    `sources` are the right-hand side components as sums over v0, v1, ...
    (see `_field_sources`); the trial step is generated from them.
    """

    def __init__(self, sources: Sequence[tuple], tol: float):
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
                dt = t_stop - t
                if dt >= dt_next:
                    dt = dt_next
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
                    err_prev = err if err > 1e-4 else 1e-4
                    if not clipped:  # a boundary-clipped step says nothing new
                        dt_next = dt * (FACTOR_MAX if factor > FACTOR_MAX else
                                        FACTOR_MIN if factor < FACTOR_MIN else
                                        factor)
                    if on_accept is not None:
                        on_accept(t, y)
                else:
                    rejected += 1
                    factor = SAFETY * err ** -PI_ALPHA
                    dt_next = dt * (1.0 if factor > 1.0 else
                                    FACTOR_MIN if factor < FACTOR_MIN else
                                    factor)
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
    # flat float64 buffers rather than a tuple object per accepted state
    times = array("d", (0.0,))
    states = array("d", y)

    def on_accept(t, state):
        times.append(t)
        states.extend(state)

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
    return Trajectory(times, states, X.variables, meta)


# -- conserved-quantity drift -------------------------------------------------

def compile_poly(p: Poly) -> Callable[[Sequence[float]], float]:
    """p as one scalar function of a state.

    Terms are summed in dict order starting from 0.0, and each term is its
    coefficient times v**e per variable, left to right, as the tests' plain
    loop over p's terms does, so the two agree bit for bit.
    """
    terms = ["0.0"]
    for mono, coeff in p.terms.items():
        powers = [f"v{i}**{e}" for i, e in enumerate(mono) if e]
        terms.append("*".join([repr(_float_coeff(coeff))] + powers))
    return _compile(f"def _p(s):\n    {_row('v', len(p.variables))} = s\n"
                    f"    return {' + '.join(terms)}")["_p"]


def _compile_darboux(F) -> Callable[[Sequence[float]], float]:
    """The `darboux.DarbouxFunction` F as one scalar function of a state,
    each of its polynomials f and g compiled once by `compile_poly`."""
    factors = [(c.f, compile_poly(c.f), lam) for c, lam in F.darboux_terms]
    exp_factors = [(compile_poly(c.g), c.s, mu) for c, mu in F.exp_terms]

    def evaluate(point: Sequence[float]) -> float:
        value = 1.0
        for f, f_of, lam in factors:
            base = f_of(point)
            exponent = float(lam)
            if base == 0.0:
                if exponent < 0:
                    raise EvalDomainError(f"factor {f} vanishes")
                value *= 0.0 ** exponent
                continue
            if base < 0.0 and lam.denominator != 1:
                raise EvalDomainError(
                    f"factor {f} negative with non-integer exponent {lam}")
            if lam.denominator == 1:
                value *= base ** int(lam)
            else:
                value *= base ** exponent
        for g_of, s, mu in exp_factors:
            g_val = g_of(point)
            denom_val = 1.0
            for e, coord in zip(s, point):
                if e:
                    denom_val *= float(coord) ** e
            if denom_val == 0.0:
                raise EvalDomainError("exponential-factor denominator vanishes")
            value *= math.exp(float(mu) * g_val / denom_val)
        return value

    return evaluate


def _as_evaluator(H) -> tuple[str, Callable[[Sequence[float]], float]]:
    if isinstance(H, Poly):
        return str(H), compile_poly(H)
    if hasattr(H, "darboux_terms"):   # a darboux.DarbouxFunction
        return H.text(), _compile_darboux(H)
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

    rows = traj.rows()
    h0 = finite_value(next(rows))
    max_abs = 0.0
    for state in rows:
        max_abs = max(max_abs, abs(finite_value(state) - h0))
    relative = max_abs / abs(h0) if h0 != 0.0 else max_abs
    return DriftReport(ident, h0, max_abs, relative)


# -- largest Lyapunov exponent ------------------------------------------------

def lyapunov_max(X: VectorField, x0: Sequence[float], t_end: float,
                 renorm_dt: float, tol: float = 1e-8) -> float:
    """Average log stretching rate of one tangent vector along the flow.

    The state and a unit tangent vector (evolved by the analytic Jacobian)
    are integrated together; the tangent is renormalized every renorm_dt and
    at t_end, where the last interval ends, and the accumulated log norm is
    divided by t_end.  Deterministic for fixed inputs.
    """
    _require_positive(t_end, "t_end")
    _require_positive(renorm_dt, "renorm_dt")
    if t_end <= renorm_dt:
        raise ValueError("need t_end > renorm_dt > 0")
    if not math.isfinite(t_end / renorm_dt):
        raise ValueError("t_end / renorm_dt must be finite")
    n_intervals = math.ceil(t_end / renorm_dt)
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
        t_stop = t_end if i == n_intervals else i * renorm_dt
        t, y = stepper.advance(t, y, t_stop)
        squares = 0.0
        for w in y[dim:]:
            squares += w * w
        norm = math.sqrt(squares)
        if norm == 0.0 or not math.isfinite(norm):
            raise NonFiniteStateError(t)
        log_sum += math.log(norm)
        y = y[:dim] + tuple(w / norm for w in y[dim:])
        stepper.k1 = None  # tangent was rescaled: stage cache invalid
    return log_sum / t_end


# -- CSV emission --------------------------------------------------------------

def emit_csv(traj: Trajectory, path: str | Path,
             integrals: Sequence[tuple[str, object]] = ()) -> None:
    """Write `t,<vars>[,H...]` rows, float64 with 17 significant digits, LF."""
    evaluators = [( name, _as_evaluator(H)[1]) for name, H in integrals]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = ["t", *traj.variables, *(name for name, _ in evaluators)]
        fh.write(",".join(header) + "\n")
        for t, state in zip(traj.times, traj.rows()):
            row = [f"{t:.17g}"]
            row.extend(f"{v:.17g}" for v in state)
            row.extend(f"{ev(state):.17g}" for _, ev in evaluators)
            fh.write(",".join(row) + "\n")
