"""Model catalog: normalized Laplace-domain shapes of return autocorrelations.

Every model is described by two dimensionless shapes of the Laplace variable
p, both equal to 1 at p = 0:

* ``observable_shape`` y(p): the normalized image of the return ACF,
  C_obs(p) = <x^2> tau_corr y(p) with tau_corr the model's own
  correlation time (tau_R for market-level models, tau_r for stock-level).
* ``force_shape`` g(p): the normalized image of the driving-force ACF.

They are tied together by the memory-equation closure

    y(p) * [tau_corr * p + g(p)] = 1,

whose numerical violation ``identity_residual`` reports.  ``CATALOG`` holds
one row per variant: its constructor, family, whether its shapes extend to
complex p, its force image and a note per evaluation route;
``render_catalog`` prints it as the table the CLI help and README show, and
``CatalogRow.require`` is the one place any route is refused.

theta = tau_R / tau_r is the stock-family shape parameter; the class bands
are heavy [0, 2/3), neutral [2/3, 4/3), light [4/3, 2), ultra-light [2, inf).
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError, InputError, SolverError, check_positive
from .specfun import (
    _return_like,
    bessel_j0,
    lambda1,
    lambert_w0_exp,
    lambert_wm1_neg_exp,
    neumann_series,
)


class Variant(enum.Enum):
    WHITE_NOISE = "white"
    LINEAR_SELF_SIMILAR = "selfsim"
    STOCK_THETA = "stock"
    SCALING = "scaling"
    FRACTIONAL = "fractional"
    BOLTZMANN = "boltzmann"
    DIFFERENTIAL = "differential"


class StockClass(enum.Enum):
    HEAVY = "heavy"
    NEUTRAL = "neutral"
    LIGHT = "light"
    ULTRA_LIGHT = "ultra-light"


# class band edges in theta = tau_R / tau_r
CLASS_EDGES = (2.0 / 3.0, 4.0 / 3.0, 2.0)


def classify_theta(theta):
    """Map theta = tau_R/tau_r onto its stock class band (left-closed)."""
    if not np.isfinite(theta) or theta < 0:
        raise DomainError("theta must be finite and >= 0")
    if theta < CLASS_EDGES[0]:
        return StockClass.HEAVY
    if theta < CLASS_EDGES[1]:
        return StockClass.NEUTRAL
    if theta < CLASS_EDGES[2]:
        return StockClass.LIGHT
    return StockClass.ULTRA_LIGHT


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model description.

    tau_R is the market memory time; tau_r (stock family only) is the stock
    correlation time; ``variance`` is the equal-time second moment <x^2>.
    tau_R = 0 is allowed only in the stock family, expressing the theta = 0
    (memoryless force) boundary.
    """

    variant: Variant
    tau_R: float
    tau_r: float | None = None
    variance: float = 1.0

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise InputError("variant must be a Variant")
        check_positive(self.variance, "variance")
        if self.is_stock_family:
            check_positive(self.tau_r, "stock-family tau_r")
            if not (np.isfinite(self.tau_R) and self.tau_R >= 0):
                raise InputError("stock-family models require tau_R >= 0")
        else:
            if self.tau_r is not None:
                raise InputError(f"{self.variant.value} does not take tau_r")
            check_positive(self.tau_R, "market-family tau_R")

    # -- constructors ----------------------------------------------------
    @classmethod
    def white_noise(cls, tau_R, variance=1.0):
        return cls(Variant.WHITE_NOISE, tau_R, None, variance)

    @classmethod
    def linear_self_similar(cls, tau_R, variance=1.0):
        return cls(Variant.LINEAR_SELF_SIMILAR, tau_R, None, variance)

    @classmethod
    def stock_theta(cls, tau_r, theta=None, tau_R=None, variance=1.0):
        return cls(Variant.STOCK_THETA, _resolve_tau_R(tau_r, theta, tau_R), tau_r, variance)

    @classmethod
    def scaling(cls, tau_r, theta=None, tau_R=None, variance=1.0):
        return cls(Variant.SCALING, _resolve_tau_R(tau_r, theta, tau_R), tau_r, variance)

    @classmethod
    def fractional(cls, tau_r, theta=None, tau_R=None, variance=1.0):
        return cls(Variant.FRACTIONAL, _resolve_tau_R(tau_r, theta, tau_R), tau_r, variance)

    @classmethod
    def boltzmann(cls, tau_R, variance=1.0):
        return cls(Variant.BOLTZMANN, tau_R, None, variance)

    @classmethod
    def differential(cls, tau_R, variance=1.0):
        return cls(Variant.DIFFERENTIAL, tau_R, None, variance)

    # -- derived attributes ----------------------------------------------
    @property
    def is_stock_family(self):
        return CATALOG[self.variant].family == "stock"

    @property
    def theta(self):
        if not self.is_stock_family:
            return None
        return self.tau_R / self.tau_r

    @property
    def corr_time(self):
        """The model's own correlation time: integral of its normalized ACF."""
        return self.tau_r if self.is_stock_family else self.tau_R

    @property
    def complex_capable(self):
        return CATALOG[self.variant].complex_p

    @property
    def memoryless(self):
        """White noise or a theta = 0 stock: the force is white, so the
        kernel is a delta spike and one-step sampling is exact."""
        return _stock_form_theta(self) == 0

    @property
    def stock_class(self):
        if not self.is_stock_family:
            return None
        return classify_theta(self.theta)


@dataclass(frozen=True)
class CatalogRow:
    """One catalog model: its ModelSpec constructor, its family ("market"
    takes tau_R, "stock" takes tau_r plus theta or tau_R), whether its
    shapes extend to complex p, its force image, and one note per route in
    ROUTES.  The closed form, the Laplace inverter, the kernel march, the
    stationary sampler and ``acf`` ask ``require`` before they compute."""

    make: object
    family: str
    complex_p: bool
    kernel: str
    closed: str
    laplace: str
    volterra: str
    simulate: str
    audit: str

    def supports(self, route):
        return not getattr(self, route).startswith("no")

    def require(self, model, route):
        """Raise CapabilityError naming the model, the route and its note if
        the note starts with "no", or for volterra if the model is memoryless
        (white noise, stock theta = 0): a delta kernel cannot be marched."""
        if not self.supports(route) or (route == "volterra" and model.memoryless):
            name = model.variant.value + ("" if model.theta is None else f" theta = {model.theta:.6g}")
            raise CapabilityError(f"the {route} route does not serve {name}: {getattr(self, route)}")


ROUTES = ("closed", "laplace", "volterra", "simulate", "audit")

CATALOG = {
    Variant.WHITE_NOISE: CatalogRow(
        ModelSpec.white_noise, "market", True, "1 (delta kernel)",
        "yes", "yes", "no, delta kernel", "exact one-step", "complex p"),
    Variant.LINEAR_SELF_SIMILAR: CatalogRow(
        ModelSpec.linear_self_similar, "market", True, "y (self-similar)",
        "yes", "yes", "yes", "circulant", "complex p"),
    Variant.STOCK_THETA: CatalogRow(
        ModelSpec.stock_theta, "stock", True, "selfsim y at tau_R",
        "yes", "yes", "theta > 0 only", "circulant; theta=0 one-step", "complex p"),
    Variant.SCALING: CatalogRow(
        ModelSpec.scaling, "stock", False, "y(theta p)",
        "no closed form", "no, real-axis audit only", "no kernel", "no, real axis only", "real axis"),
    Variant.FRACTIONAL: CatalogRow(
        ModelSpec.fractional, "stock", False, "y(p)^theta",
        "no closed form", "no, real-axis audit only", "no kernel", "no, real axis only", "real axis"),
    Variant.BOLTZMANN: CatalogRow(
        ModelSpec.boltzmann, "market", True, "1 + ln y",
        "no closed form", "yes", "yes", "no, negative spectrum", "complex p"),
    Variant.DIFFERENTIAL: CatalogRow(
        ModelSpec.differential, "market", True, "dg/du = y",
        "no closed form", "yes", "yes", "no band-limited spectrum", "complex p + dg/du"),
}


def render_catalog():
    """CATALOG as a fixed-width pipe table, one row per variant."""
    table = [("model", "family", "force image g") + ROUTES] + [
        (v.value, row.family, row.kernel) + tuple(getattr(row, r) for r in ROUTES)
        for v, row in CATALOG.items()
    ]
    widths = [max(len(cells[i]) for cells in table) for i in range(len(table[0]))]
    table.insert(1, tuple("-" * w for w in widths))
    return "".join(
        "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |\n" for cells in table
    )


def _resolve_tau_R(tau_r, theta, tau_R):
    if (theta is None) == (tau_R is None):
        raise InputError("give exactly one of theta or tau_R")
    if theta is not None:
        if not (np.isfinite(theta) and theta >= 0):
            raise InputError("theta must be >= 0")
        return float(theta) * float(tau_r)
    return float(tau_R)


def _validate_p(model, p):
    """Common p validation; returns p as a 1-d float or complex array."""
    arr = np.atleast_1d(np.asarray(p))
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            if not model.complex_capable:
                raise CapabilityError(
                    f"{model.variant.value} shape is defined on the real axis only"
                )
            if np.any(arr.real < 0):
                raise DomainError("shapes are defined for Re p >= 0")
            if not np.all(np.isfinite(arr)):
                raise DomainError("p must be finite")
            return arr.astype(complex)
        arr = arr.real
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("p must be finite")
    if np.any(arr < 0):
        raise DomainError("shapes are defined for Re p >= 0")
    return arr


_MARKET_THETA = {Variant.WHITE_NOISE: 0.0, Variant.LINEAR_SELF_SIMILAR: 1.0}


def _stock_form_theta(model):
    """theta of the closed family's stock form on tau_r = corr_time: 0 for
    white noise, 1 for the self-similar market, tau_R/tau_r for a stock, and
    None for every other model."""
    if model.variant is Variant.STOCK_THETA:
        return model.tau_R / model.tau_r
    return _MARKET_THETA.get(model.variant)


def _selfsim_shape(tau_R, p):
    # root of y^2 + tau_R p y = 1 that is 1 at p = 0, written in the
    # cancellation-free reciprocal form (the denominator never vanishes for
    # Re p >= 0); principal sqrt keeps conjugate symmetry and the correct
    # branch on the closed right half-plane
    u = 0.5 * tau_R * p
    return 1.0 / (np.sqrt(1.0 + u * u) + u)


def _shapes(model, p, observable=True, force=True):
    """(y, g) at p, the observable and force images, from one evaluation of
    the root they share.  The scaling model's two are separate solves (its
    g reads y at theta p), so there an image not asked for is None."""
    arr = _validate_p(model, p)
    v = model.variant
    theta = _stock_form_theta(model)
    if theta is not None:
        # white force (1) at theta = 0, else the self-similar root at tau_R, which
        # the self-similar market keeps as y: 1/(tau_R p + g) differs in the last bit
        g = np.ones_like(arr) if theta == 0 else _selfsim_shape(model.tau_R, arr)
        return (g if v is Variant.LINEAR_SELF_SIMILAR else 1.0 / (model.corr_time * arr + g)), g
    if v in (Variant.BOLTZMANN, Variant.DIFFERENTIAL):
        # y = 1/w and g = w - tau_R p on the Lambert root: w = W_0(e^(1 + tau_R p)),
        # or w = v - 1 with v = -W_-1(-2 exp(-2 - tau_R p)), via v - ln v = (2 - ln 2) + tau_R p
        u = model.tau_R * arr
        if v is Variant.BOLTZMANN:
            w = np.atleast_1d(lambert_w0_exp(1.0 + u))
        else:
            w = -np.atleast_1d(lambert_wm1_neg_exp((2.0 - np.log(2.0)) + u)) - 1.0
        y, g = 1.0 / w, w - u
        y[arr == 0] = g[arr == 0] = 1.0  # anchor the normalization exactly
        return y, g
    theta = model.theta
    if v is Variant.FRACTIONAL:  # g = y^theta on the one solve
        y = solve_functional_shape(model, arr)
        return y, (y**theta if theta > 0 else np.ones_like(arr))
    y = g = None  # scaling
    if observable:
        y = solve_functional_shape(model, arr)
    if force:
        g = solve_functional_shape(model, theta * arr) if theta > 0 else np.ones_like(arr)
    return y, g


def observable_shape(model, p):
    """Normalized observable image y(p), with y(0) = 1 exactly."""
    return _return_like(p, _shapes(model, p, force=False)[0])


def force_shape(model, p):
    """Normalized force image g(p), with g(0) = 1 exactly."""
    return _return_like(p, _shapes(model, p, observable=False)[1])


# -- functional-equation solvers (scaling / fractional) -------------------

RESIDUAL_LIMIT = 1e-10
_CHAIN_FLOOR = 1e-13   # tau_r * p below which y = 1 closes a chain
_CHAIN_CEILING = 1e13  # tau_r * p above which y = 1/(tau_r p) closes it
_CHAIN_MAX_DEPTH = 200_000


def solve_functional_shape(model, p):
    """Solve the self-referential shape equation of scaling/fractional models.

    scaling:    y(p) [tau_r p + y(theta p)] = 1
    fractional: y(p) [tau_r p + y(p)^theta] = 1

    Real p >= 0 only, by the shapes' own rule (``_validate_p``).  The returned
    values satisfy the defining equation with residual <= 1e-10 (checked;
    SolverError otherwise, and before solving if a scaling grid's substitution
    chain, ``_chain_depth``, is deeper than _CHAIN_MAX_DEPTH levels).

    The scaling equation couples p only along the lattice theta^k p, so its
    attracting solution for theta > 1 carries a bounded log-periodic
    modulation around the smooth envelope (a discrete-scale-invariance
    echo); it is the solution iterated substitution converges to, and it
    still satisfies the equation to the stated residual.
    """
    if model.variant not in (Variant.SCALING, Variant.FRACTIONAL):
        raise CapabilityError("functional solver applies to scaling/fractional models")
    arr = _validate_p(model, p)
    theta, tau_r = model.theta, model.tau_r
    if model.variant is Variant.FRACTIONAL:
        y = _solve_fractional(tau_r, theta, arr)
        resid = np.abs(y * (tau_r * arr + y**theta) - 1.0)
    else:
        y, y_at_theta_p = _solve_scaling(tau_r, theta, arr)
        resid = np.abs(y * (tau_r * arr + y_at_theta_p) - 1.0)
    worst = float(np.max(resid, initial=0.0))
    if worst > RESIDUAL_LIMIT:
        raise SolverError("functional shape residual above 1e-10", residual=worst)
    return _return_like(p, y)


def _solve_fractional(tau_r, theta, arr):
    if theta == 0.0:
        return 1.0 / (1.0 + tau_r * arr)
    # f(y) = y (tau_r p + y^theta) - 1 increases on (0, 1]; f(1) >= 0
    lo = np.zeros_like(arr)
    hi = np.ones_like(arr)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        high = mid * (tau_r * arr + mid**theta) >= 1.0
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    y = 0.5 * (lo + hi)
    y[arr == 0] = 1.0
    return y


def _solve_scaling(tau_r, theta, arr):
    """(y(p), y(theta p)) of the scaling equation; the second is the chain's
    level 1, which the residual check needs."""
    if theta == 0.0:
        return 1.0 / (1.0 + tau_r * arr), np.ones_like(arr)
    if theta == 1.0:
        # the substitution chain is a self-loop; its fixed point is the
        # self-similar closed form, which we take directly
        y = _selfsim_shape(tau_r, arr)
        return y, y
    out = np.ones_like(arr)
    out_theta = np.ones_like(arr)
    pos = arr > 0
    if not np.any(pos):
        return out, out_theta
    q = arr[pos]
    depth = int(np.max(_chain_depth(tau_r, theta, q)))
    if depth > _CHAIN_MAX_DEPTH:
        raise SolverError(
            f"substitution chain for theta = {theta} exceeds {_CHAIN_MAX_DEPTH} levels",
            residual=np.inf,
        )
    # nodes q theta^k are formed level by level: O(points + depth) memory
    powers = theta ** np.arange(depth + 1)
    if theta > 1.0:
        y = 1.0 / (tau_r * (q * powers[-1]))
    else:
        y = np.ones(q.size)
    # one ordered sweep from the closed end solves the chain exactly; extra
    # sweeps (budget 200) would only repeat it, so convergence is immediate
    for k in range(depth - 1, 0, -1):
        y = 1.0 / (tau_r * (q * powers[k]) + y)
    out_theta[pos] = y
    out[pos] = 1.0 / (tau_r * q + y)
    return out, out_theta


def _chain_depth(tau_r, theta, q):
    """Levels of the scaling chain q, theta q, theta^2 q, ... at each q > 0 to its closed end."""
    edge = _CHAIN_FLOOR if theta < 1.0 else _CHAIN_CEILING
    return np.ceil(np.maximum(np.log(edge / (tau_r * q)) / np.log(theta), 1.0))


def _solvable(model, p):
    """Mask of the points of p the shape solvers reach, with p validated as the shapes
    do: all but the scaling points whose chain is deeper than _CHAIN_MAX_DEPTH."""
    arr = _validate_p(model, p)
    ok = np.ones(arr.shape, dtype=bool)
    if model.variant is Variant.SCALING and model.theta not in (0.0, 1.0):
        ok[arr > 0] = _chain_depth(model.tau_r, model.theta, arr[arr > 0]) <= _CHAIN_MAX_DEPTH
    return ok


# -- closed time-domain forms ------------------------------------------------

_THETA_SNAP = 1e-12


def closed_form_acf(model, tau):
    """Exact normalized ACF of the white, self-similar and stock models.

    White noise and the self-similar market are the theta = 0 and theta = 1
    stocks on tau_r = tau_R.  A stock of theta > 0 has, with x = 2 tau/tau_R,
    the Neumann series

        c(tau) = (2/x) sum_n a_n (2n+1) J_2n+1(x) = sum_n a_n [J_2n(x) + J_2n+2(x)]

    with a_n = (1 - theta)^n for theta < 2, and for theta > 2
    a_n = (1 - theta)^-n / (theta - 1) plus the ``spectral_atom`` line
    2 R cos(omega tau); c(0) = 1.  (Substituting omega = (2/tau_R) sin phi
    makes the stock image rational in e^(i phi); DLMF 10.9.1 turns its
    geometric expansion into Bessel functions.)  At theta = 1 and 2 the
    series telescopes to lambda1(2 tau/tau_r) and J0(tau/tau_r), and theta = 0
    is exp(-tau/tau_r); those three are evaluated in closed form.  The series
    needs about 2 tau/(theta tau_r) orders per lag, so a request above
    specfun.NEUMANN_WORK_BOUND (small theta at long lags) raises InputError.
    The other models are refused by their catalog row (CapabilityError).
    """
    t = np.atleast_1d(np.asarray(tau)).astype(float)
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise DomainError("lags must be finite and >= 0")
    CATALOG[model.variant].require(model, "closed")
    theta, tau_r = _stock_form_theta(model), model.corr_time
    if abs(theta - 0.0) <= _THETA_SNAP:
        c = np.exp(-t / tau_r)
    elif abs(theta - 1.0) <= _THETA_SNAP:
        c = lambda1(2.0 * t / tau_r)
    elif abs(theta - 2.0) <= _THETA_SNAP:
        c = bessel_j0(t / tau_r)
    else:
        c = _stock_series_acf(model, theta, t)
    return _return_like(tau, c)


def _stock_series_acf(model, theta, t):
    x = 2.0 * t / model.tau_R
    if theta < 2.0:
        return neumann_series(x, 1.0, 1.0 - theta)
    omega, weight = spectral_atom(model)
    c = neumann_series(x, 1.0 / (theta - 1.0), 1.0 / (1.0 - theta))
    c += 2.0 * weight * np.cos(omega * t)
    c[t == 0] = 1.0  # a_0 + 2 R = 1, exactly
    return c


def identity_residual(model, p):
    """|y(p) [tau_corr p + g(p)] - 1| on the model's own correlation time,
    with y and g from one evaluation of the root they share."""
    y, g = (_return_like(p, image) for image in _shapes(model, p))
    r = np.abs(y * (model.corr_time * np.asarray(p) + g) - 1.0)
    return _return_like(p, r)


def spectral_atom(model):
    """Undamped spectral line of an ultra-light stock, or None.

    For theta > 2 the stock image 1/(p + g(p)/tau_r) has a pole pair on the
    imaginary axis at a frequency outside the driving band, so the
    stationary process carries an undamped harmonic: the normalized ACF is
    c(t) = c_band(t) + 2 R cos(omega t) with exact parameters

        omega = 1 / (tau_r sqrt(theta - 1)),   R = (theta - 2) / (2 (theta - 1)).

    Returns (omega, R), or None when the model has no such line (stock
    theta <= 2, white noise, self-similar market).  Models whose force
    relation is not the closed stock form raise CapabilityError.
    """
    theta = _stock_form_theta(model)
    if theta is None:
        raise CapabilityError(f"spectral line analysis is not available for {model.variant.value}")
    if theta <= 2.0:
        return None
    omega = 1.0 / (model.corr_time * np.sqrt(theta - 1.0))
    weight = (theta - 2.0) / (2.0 * (theta - 1.0))
    return omega, weight


def band_variance(model, omega):
    """Variance (1/pi) int_0^omega S of the band's continuum, for the
    self-similar model and stocks of theta > 0 (others: CapabilityError).

    omega = (2/tau_R) sin phi makes S d omega rational in e^(i phi); with
    e = theta - 1 (the self-similar model is theta = 1; |e| <= _THETA_SNAP is 0)

        V / variance = [2 phi + (1 - e) atan2(e sin 2 phi, 1 + e cos 2 phi)/e] / pi,

    whose e -> 0 limit is (2 phi + sin 2 phi)/pi.  At and past the band edge
    2/tau_R, V is 1, or 1 - 2 R for theta > 2 (R the ``spectral_atom`` line).
    """
    theta = _stock_form_theta(model)
    if not theta:  # None, or the memoryless theta = 0
        raise CapabilityError(f"no band-limited spectrum for {model.variant.value}")
    phi2 = 2.0 * np.arcsin(np.minimum(np.asarray(omega, dtype=float) / (2.0 / model.tau_R), 1.0))
    e = theta - 1.0
    if abs(e) <= _THETA_SNAP:
        return model.variance / np.pi * (phi2 + np.sin(phi2))
    atan = np.arctan2(e * np.sin(phi2), 1.0 + e * np.cos(phi2))
    return model.variance / np.pi * (phi2 + (1.0 - e) * atan / e)


# -- shape evaluators for transform work --------------------------------------


@dataclass(frozen=True)
class ShapeEvaluator:
    """Callable bundle handed to the transform layer.

    ``transform_scale`` is the integral of the associated normalized
    time-domain ACF, i.e. the constant T with image(p) = T * shape(p) for
    the normalized ACF; None when the time-domain object is not an ordinary
    function (white force is a delta, boltzmann/differential forces are
    log-singular distributions).
    """

    model: ModelSpec
    kind: str = "observable"

    def __post_init__(self):
        if self.kind not in ("observable", "force"):
            raise InputError("kind must be 'observable' or 'force'")

    def __call__(self, p):
        fn = observable_shape if self.kind == "observable" else force_shape
        return fn(self.model, p)

    @property
    def complex_capable(self):
        return self.model.complex_capable

    @property
    def corr_time(self):
        return self.model.corr_time

    @property
    def transform_scale(self):
        m = self.model
        if self.kind == "observable":
            return m.corr_time
        return m.tau_R if _stock_form_theta(m) else None

    @property
    def image_zero(self):
        """Dimensionful image at p = 0: <x^2> tau_corr or <x^2>/tau_corr."""
        m = self.model
        if self.kind == "observable":
            return m.variance * m.corr_time
        return m.variance / m.corr_time

    @property
    def peak_variance(self):
        """Time-domain value at lag 0 of the dimensionful ACF, when defined."""
        m = self.model
        if self.kind == "observable":
            return m.variance
        if self.transform_scale is None:
            return None
        return self.image_zero / self.transform_scale

    @property
    def freq_scale(self):
        """Highest angular frequency the image's singularities live at."""
        m = self.model
        return 2.0 / min(m.corr_time, m.tau_R or np.inf)

    def image(self, p):
        return self.image_zero * self(p)


def observable_evaluator(model):
    return ShapeEvaluator(model, "observable")


def force_evaluator(model):
    return ShapeEvaluator(model, "force")
