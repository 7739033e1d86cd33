"""Basis-function dictionaries defining f(x) = sum_j lambda_j f_j(x).

Four kinds are supported: raw coordinates ("linear"), a constant column plus
coordinates ("constant_linear"), Gaussian bumps on a box lattice
("rbf_lattice"), and Gaussian bumps at user-supplied centers ("custom_rbf").
The kind fixes the sup-norm bound C_F: exactly 1 for Gaussian bumps; for the
unbounded kinds it is flagged as estimated and taken from training data.
"""

import math
from dataclasses import KW_ONLY, dataclass, field, fields

import numpy as np
from scipy.spatial.distance import cdist

_KINDS = ("linear", "constant_linear", "rbf_lattice", "custom_rbf")


def _check_lattice(dim, grid, box):
    """rbf_lattice's rules: dim grid counts of at least 1, few enough that
    numpy can index the float centers array, and a finite (2, dim) box,
    lower <= upper, < on every axis of more than one count."""
    if grid is None or len(grid) != dim:
        raise ValueError(f"rbf_lattice grid must hold {dim} counts")
    if any(g < 1 for g in grid):
        raise ValueError("grid counts must be at least 1")
    if math.prod(map(int, grid)) * dim * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"rbf_lattice grid {tuple(grid)} has more centers "
                         "than numpy can index")
    if box is None or np.shape(box) != (2, dim):
        raise ValueError(f"rbf_lattice box must be a (2, {dim}) array")
    if not np.all(np.isfinite(box)):
        raise ValueError("box corners must be finite")
    for ax, (lo, hi) in enumerate(zip(*box)):
        if hi < lo or (hi == lo and grid[ax] > 1):
            raise ValueError(f"degenerate box on axis {ax}")


def _lattice_centers(grid, box):
    """The rbf_lattice centers of a checked grid and box: equally spaced
    along each axis, corners included, in C order over the axes."""
    axes = [np.linspace(lo, hi, g) for lo, hi, g in zip(*box, grid)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class Dictionary:
    """A dictionary, checked in full on construction; its kind fixes C_F,
    its kind and shape M, and a kind leaves the fields it does not use None;
    an rbf_lattice's centers are exactly the lattice of its grid and box."""

    kind: str
    dim: int
    M: int = field(init=False)   # worked out from kind and shape
    _: KW_ONLY
    centers: np.ndarray = None   # rbf kinds only
    beta: float = None           # rbf kinds only
    grid: tuple = None           # rbf_lattice only: counts per axis
    box: np.ndarray = None       # rbf_lattice only: (2, dim) lower/upper corners

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown dictionary kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.kind in ("linear", "constant_linear"):
            if self.centers is not None or self.beta is not None:
                raise ValueError(f"a {self.kind} dictionary has no centers "
                                 f"or beta")
            M = self.dim if self.kind == "linear" else self.dim + 1
        else:
            beta, centers = self.beta, self.centers
            if beta is None or not (math.isfinite(beta) and beta > 0.0):
                raise ValueError(f"rbf beta must be a finite number > 0, "
                                 f"not {beta!r}")
            if (centers is None or centers.ndim != 2
                    or centers.shape[1] != self.dim
                    or not np.all(np.isfinite(centers))):
                raise ValueError(f"rbf centers must be a finite "
                                 f"(M, {self.dim}) array")
            M = len(centers)
        if M < 1:
            raise ValueError("dictionary must contain at least one function")
        if self.kind == "rbf_lattice":
            _check_lattice(self.dim, self.grid, self.box)
            if math.prod(self.grid) != M:
                raise ValueError(f"rbf_lattice grid {tuple(self.grid)} gives "
                                 f"{math.prod(self.grid)} centers, not {M}")
            if not np.array_equal(self.centers,
                                  _lattice_centers(self.grid, self.box)):
                raise ValueError("rbf_lattice centers must be the lattice "
                                 "its grid and box give")
        elif self.grid is not None or self.box is not None:
            raise ValueError(f"a {self.kind} dictionary has no grid or box")
        object.__setattr__(self, "M", M)

    def __eq__(self, other):
        """Field by field, array fields by np.array_equal."""
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def C_F_estimated(self):
        return self.kind in ("linear", "constant_linear")

    @property
    def C_F(self):
        return 0.0 if self.C_F_estimated else 1.0


@dataclass(frozen=True)
class DesignMatrix:
    """Evaluated dictionary: phi[i, j] = f_j(x_i), with optional labels."""

    phi: np.ndarray
    y: np.ndarray = None

    def __post_init__(self):
        phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        if not np.all(np.isfinite(phi)):
            raise ValueError("design matrix contains non-finite entries")
        object.__setattr__(self, "phi", phi)
        if self.y is not None:
            y = np.atleast_1d(np.asarray(self.y, dtype=float))
            if y.shape != (phi.shape[0],):
                raise ValueError("labels must align with rows")
            if not np.all(np.isin(y, (-1.0, 1.0))):
                raise ValueError("labels must be -1 or +1")
            object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.phi.shape[0]

    @property
    def M(self):
        return self.phi.shape[1]


def build_linear(dim):
    """Coordinate functions f_j(x) = x_j; C_F must be estimated from data."""
    return Dictionary("linear", dim)


def build_constant_linear(dim):
    """A constant function 1 followed by the coordinates."""
    return Dictionary("constant_linear", dim)


def build_rbf_lattice(grid, box_lower, box_upper, beta=2.0):
    """Gaussian bumps exp(-beta ||x - b||^2) centered on a box lattice.

    The lattice is equally spaced along each axis and includes the box
    corners (a single count along an axis keeps only the lower corner).
    """
    grid = tuple(int(g) for g in np.atleast_1d(grid))
    lo = np.atleast_1d(np.asarray(box_lower, dtype=float))
    hi = np.atleast_1d(np.asarray(box_upper, dtype=float))
    dim = len(grid)
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise ValueError("box corners must match the grid dimension")
    box = np.vstack([lo, hi])
    _check_lattice(dim, grid, box)
    return Dictionary("rbf_lattice", dim, centers=_lattice_centers(grid, box),
                      beta=float(beta), grid=grid, box=box)


def build_custom_rbf(centers, beta=2.0):
    """Gaussian bumps at the rows of centers; Dictionary checks them."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    return Dictionary("custom_rbf", centers.shape[1], centers=centers,
                      beta=float(beta))


def evaluate(dic, X, y=None):
    """Evaluate every dictionary function on the rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != dic.dim:
        raise ValueError(
            f"data has {X.shape[1]} features, dictionary expects {dic.dim}"
        )
    if dic.kind == "linear":
        phi = X.copy()
    elif dic.kind == "constant_linear":
        phi = np.hstack([np.ones((X.shape[0], 1)), X])
    else:
        sq = cdist(X, dic.centers, "sqeuclidean")
        phi = np.exp(-dic.beta * sq)
    return DesignMatrix(phi, y)


def estimated_c_f(dic, design):
    """Sup-norm bound used by the rate formulas.

    Exact (1) for Gaussian dictionaries; otherwise the largest |f_j(x_i)|
    seen in the training design, which the theory treats as C_F.
    """
    if not dic.C_F_estimated:
        return dic.C_F
    value = float(np.abs(design.phi).max())
    if value <= 0.0:
        raise ValueError("cannot estimate a positive sup-norm from this data")
    return value
