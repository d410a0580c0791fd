"""Model parameters, interaction kernels, and coupling-geometry constants.

The dynamics couples harmonic confinement, linear friction ``gamma``, and a
mean-field interaction of intensity ``lam`` acting through a kernel K: each
unit feels the velocity drift  -x - gamma*v - lam * <dK/dx(x - y)>_y.
Every other module sees kernels only through :class:`InteractionKernel`, so
the curvature bound used by the small-interaction guarantee is certified
here, never estimated downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError

Array = np.ndarray
KernelFn = Callable[[Union[float, Array]], Union[float, Array]]

__all__ = [
    "InteractionKernel",
    "ModelParams",
    "CouplingConstants",
    "builtin_kernel",
    "smallness_holds",
    "smallness_threshold",
    "coupling_constants",
    "norm_equivalence_ratio",
    "kernel_sum",
    "mean_field_force",
]


@dataclass(frozen=True)
class InteractionKernel:
    """Twice-differentiable interaction potential with a certified curvature bound.

    ``d2_sup`` must dominate sup_x |d2(x)|.  It is supplied analytically for the
    builtin kernels and trusted for custom ones, because the small-interaction
    predicate has to be a certificate, not an estimate.

    ``kind`` and ``coeffs`` must describe ``evaluate`` exactly, because :func:`kernel_sum`
    trusts them: it sums quadratic_linear and sine kernels by moments, never calling ``evaluate``.
    """

    name: str
    evaluate: KernelFn
    d1: KernelFn
    d2: KernelFn
    d2_sup: float
    is_even: bool
    kind: str = "custom"
    coeffs: tuple = ()
    d1_at_zero: float = field(init=False, repr=False, compare=False)   # K'(0), the self term

    def __post_init__(self):
        object.__setattr__(self, "d1_at_zero", float(np.asarray(self.d1(0.0))))


@dataclass(frozen=True)
class ModelParams:
    """Friction ``gamma`` > 0, interaction intensity ``lam`` >= 0, and a kernel."""

    gamma: float
    lam: float
    kernel: InteractionKernel

    def __post_init__(self):
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ConfigurationError(f"gamma must be positive and finite, got {self.gamma}")
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ConfigurationError(f"lam must be nonnegative and finite, got {self.lam}")


@dataclass(frozen=True)
class CouplingConstants:
    """Constants of the contraction geometry for a given friction.

    a = min(gamma, 1/gamma)/2 and b = 1 + a^2 - a*gamma define the modified
    difference norm |dx + a*dv|^2 + b*|dv|^2.  M is the matching quadratic
    form on (x, -v); A is the symmetric square root of M^{-1}, used to twist
    the Fisher information.
    """

    gamma: float
    a: float
    b: float
    M: Array
    A: Array

    @property
    def contraction_rate(self) -> float:
        """Guaranteed decay rate of the squared modified norm."""
        return self.a / 4.0


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def finite_float(value, name: str) -> float:
    """A finite number.

    A config number as a float; ConfigurationError unless it is a finite int or float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def step_count(span: float, dt: float, name: str) -> int:
    """The number of dt steps in ``span``, at least 1.  ConfigurationError unless ``span`` is
    positive and the count is below 2**63; an infinite count would overflow ``round``."""
    if not span > 0:
        raise ConfigurationError(f"{name} must be positive")
    if not span / dt < 2 ** 63:
        raise ConfigurationError(f"{name}={span:g} is more than 2**63 steps of dt={dt:g}")
    return max(1, round(span / dt))


def builtin_kernel(spec: Union[str, dict, InteractionKernel]) -> InteractionKernel:
    """Build one of the builtin kernels from a descriptor.

    Accepted descriptors: ``"zero"`` or ``{"type": "zero"}``,
    ``{"type": "quadratic_linear", "a": ..., "b": ...}``,
    ``{"type": "sine", "amplitude": ...}``,
    ``{"type": "gaussian_bump", "height": ..., "width": ...}``,
    ``{"type": "symmetrized", "inner": <descriptor>}``.
    """
    if isinstance(spec, InteractionKernel):
        return spec
    if isinstance(spec, str):
        spec = {"type": spec}
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigurationError(f"kernel descriptor must be a dict with a 'type' key, got {spec!r}")
    kind = spec["type"]
    extra = set(spec) - {"type"}

    if kind == "zero":
        if extra:
            raise ConfigurationError(f"zero kernel takes no parameters, got {sorted(extra)}")
        zero = lambda x: _as_float_array(x) * 0.0
        return InteractionKernel(
            name="zero", evaluate=zero, d1=zero, d2=zero, d2_sup=0.0,
            is_even=True, kind="quadratic_linear", coeffs=(0.0, 0.0),
        )

    if kind == "quadratic_linear":
        if extra != {"a", "b"}:
            raise ConfigurationError(f"quadratic_linear kernel needs exactly 'a' and 'b', got {sorted(extra)}")
        a, b = finite_float(spec["a"], "a"), finite_float(spec["b"], "b")
        return InteractionKernel(
            name=f"quadratic_linear(a={a:g}, b={b:g})",
            evaluate=lambda x: a * _as_float_array(x) ** 2 + b * _as_float_array(x),
            d1=lambda x: 2.0 * a * _as_float_array(x) + b,
            d2=lambda x: _as_float_array(x) * 0.0 + 2.0 * a,
            d2_sup=2.0 * abs(a), is_even=(b == 0.0),
            kind="quadratic_linear", coeffs=(a, b),
        )

    if kind == "sine":
        if extra != {"amplitude"}:
            raise ConfigurationError(f"sine kernel needs exactly 'amplitude', got {sorted(extra)}")
        c = finite_float(spec["amplitude"], "amplitude")
        return InteractionKernel(
            name=f"sine(amplitude={c:g})",
            evaluate=lambda x: c * np.sin(_as_float_array(x)),
            d1=lambda x: c * np.cos(_as_float_array(x)),
            d2=lambda x: -c * np.sin(_as_float_array(x)),
            d2_sup=abs(c), is_even=False, kind="sine", coeffs=(c,),
        )

    if kind == "gaussian_bump":
        if extra != {"height", "width"}:
            raise ConfigurationError(f"gaussian_bump kernel needs exactly 'height' and 'width', got {sorted(extra)}")
        h, w = finite_float(spec["height"], "height"), finite_float(spec["width"], "width")
        w2 = w * w   # 0 for a width below about 2e-162
        if not (w > 0.0 and w2 > 0.0):
            raise ConfigurationError(f"gaussian_bump width must be positive, with a positive square, got {w}")

        def ev(x):
            x = _as_float_array(x)
            return h * np.exp(-x * x / (2.0 * w2))

        def d1(x):
            x = _as_float_array(x)
            return -h * x / w2 * np.exp(-x * x / (2.0 * w2))

        def d2(x):
            x = _as_float_array(x)
            return h / w2 * (x * x / w2 - 1.0) * np.exp(-x * x / (2.0 * w2))

        # |d2| is maximal at x = 0: |h|/w^2 beats the secondary extremum 2|h|e^{-3/2}/w^2.
        return InteractionKernel(
            name=f"gaussian_bump(height={h:g}, width={w:g})",
            evaluate=ev, d1=d1, d2=d2, d2_sup=abs(h) / w2,
            is_even=True, kind="gaussian_bump", coeffs=(h, w),
        )

    if kind == "symmetrized":
        if extra != {"inner"}:
            raise ConfigurationError(f"symmetrized kernel needs exactly 'inner', got {sorted(extra)}")
        inner = builtin_kernel(spec["inner"])

        def ev(x):
            x = _as_float_array(x)
            return 0.5 * (inner.evaluate(x) + inner.evaluate(-x))

        def d1(x):
            x = _as_float_array(x)
            return 0.5 * (inner.d1(x) - inner.d1(-x))

        def d2(x):
            x = _as_float_array(x)
            return 0.5 * (inner.d2(x) + inner.d2(-x))

        return InteractionKernel(
            name=f"symmetrized({inner.name})",
            evaluate=ev, d1=d1, d2=d2, d2_sup=inner.d2_sup,
            is_even=True, kind="symmetrized", coeffs=(inner,),
        )

    raise ConfigurationError(f"unknown kernel type {kind!r}")


def smallness_threshold(gamma: float) -> float:
    """Largest certified value of lam * d2_sup for the given friction."""
    return min(gamma, 1.0 / gamma) / 8.0


def smallness_holds(params: ModelParams) -> bool:
    """Whether the small-interaction condition lam*d2_sup <= min(gamma, 1/gamma)/8 holds."""
    return params.lam * params.kernel.d2_sup <= smallness_threshold(params.gamma)


def coupling_constants(gamma: float) -> CouplingConstants:
    """Contraction geometry for friction ``gamma``.

    A = M^{-1/2} = adj(M + s I) / (s t), s = sqrt(det M) = sqrt(b), t = sqrt(tr M + 2 s), since
    (M + s I) / t is the square root of a 2x2 SPD M: A is SPD and A @ A @ M = I to rounding.
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ConfigurationError(f"gamma must be positive and finite, got {gamma}")
    a = min(gamma, 1.0 / gamma) / 2.0
    b = 1.0 + a * a - a * gamma
    M = np.array([[1.0, -a], [-a, b + a * a]])
    s = math.sqrt(b)
    A = np.array([[M[1, 1] + s, a], [a, 1.0 + s]]) / (s * math.sqrt(1.0 + M[1, 1] + 2.0 * s))
    return CouplingConstants(gamma=gamma, a=a, b=b, M=M, A=A)


def norm_equivalence_ratio(constants: CouplingConstants) -> float:
    """Equivalence ratio between the modified and Euclidean squared norms.

    max(2, b + 2a^2) / min(1/2, b / (1 + 2a^2)); equals 4 for every gamma.
    """
    a, b = constants.a, constants.b
    upper = max(2.0, b + 2.0 * a * a)
    lower = min(0.5, b / (1.0 + 2.0 * a * a))
    return upper / lower


def _direct_sum(fn: KernelFn, x: Array, points: Array, weights=None) -> Array:
    """sum_j w_j fn(x_i - y_j) term by term, one fn call per block of about 2^14 pairs (small
    enough to stay in cache), the targets taken in C order across all rows of ``x``."""
    n, m = x.shape[-1], points.shape[-1]
    xs, rows = x.reshape(-1, 1), np.arange(x.size) // n
    ys = np.broadcast_to(points, x.shape[:-1] + (m,)).reshape(math.prod(x.shape[:-1]), m)
    out = np.empty(x.size)
    block = max(1, 2 ** 14 // max(m, 1))
    for lo in range(0, x.size, block):
        terms = np.asarray(fn(xs[lo:lo + block] - ys[rows[lo:lo + block]]))
        out[lo:lo + block] = terms.sum(axis=1) if weights is None else terms @ weights
    return out.reshape(x.shape)


def _moment(values: Array, weights: Optional[Array]) -> Array:
    """sum_j w_j values_j over the last axis, kept as an axis of length one."""
    return values.sum(axis=-1, keepdims=True) if weights is None else (values @ weights)[..., None]


def kernel_sum(kernel: InteractionKernel, x: Array, points: Array,
               weights: Optional[Array] = None, derivative: bool = False) -> Array:
    """sum_j w_j K(x_i - y_j) over the last axis (K' if ``derivative``), shaped like ``x``.

    ``points`` (..., m) broadcasts against ``x`` (..., n); ``weights`` (m,) default to ones.
    quadratic_linear (zero included) and sine kernels sum exactly through O(n + m)
    moments of the points; every other kernel sums term by term.
    """
    x = _as_float_array(x)
    y = x if points is x else _as_float_array(points)
    if kernel.kind == "quadratic_linear":
        a, b = kernel.coeffs
        total = y.shape[-1] if weights is None else weights.sum()
        if derivative:
            return 2.0 * a * (total * x - _moment(y, weights)) + total * b
        m = _moment(y, weights) / total   # centred, so the x^2 and y^2 parts cannot cancel
        return a * (total * (x - m) ** 2 + _moment((y - m) ** 2, weights)) + b * total * (x - m)
    if kernel.kind == "sine":
        (c,) = kernel.coeffs
        cx, sx = np.cos(x), np.sin(x)
        cy, sy = (cx, sx) if y is x else (np.cos(y), np.sin(y))
        if derivative:   # cos(x - y) = cos x cos y + sin x sin y
            return c * (cx * _moment(cy, weights) + sx * _moment(sy, weights))
        return c * (sx * _moment(cy, weights) - cx * _moment(sy, weights))   # sin(x - y)
    return _direct_sum(kernel.d1 if derivative else kernel.evaluate, x, y, weights)


def mean_field_force(params: ModelParams, x: Union[float, Array],
                     marginal: tuple[Array, Array]) -> Union[float, Array]:
    """Mean-field force -lam * sum_j w_j dK/dx(x - y_j) against weighted samples.

    ``marginal`` is a pair (points, weights) with weights summing to one
    within 1e-10 (e.g. a grid x-marginal or an empirical measure).
    """
    points, weights = marginal
    points = _as_float_array(points)
    weights = _as_float_array(weights)
    if points.shape != weights.shape or points.ndim != 1:
        raise ValueError("marginal must be a pair of equal-length 1-d arrays")
    total = weights.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"marginal weights must sum to 1 within 1e-10, got {total!r}")
    out = kernel_sum(params.kernel, np.atleast_1d(x), points, weights, derivative=True)
    return -params.lam * (float(out[0]) if np.ndim(x) == 0 else out)
