"""Seed finders: recover where growth started from the shape alone.

Each finder consumes a :class:`~seed_archeology.trees.ShapeView` plus
:class:`FinderParams` and returns a :class:`SeedEstimate` in shape labels.
Two guarantees exist and the estimate records which one it aims for:

* first kind: the output should be *contained in* the seed,
* second kind: the output should *contain* the seed.

The path and urrt finders are of the first kind and simply take the
most-central vertices, with a target size shrunk by the slack gamma (path)
or by the depth scale ``a = 2 ln(4 l^2 / eps) + 1`` (urrt).  The star
finder is of the second kind: it returns the most central vertex plus the
neighbors with the largest branches hanging off it, inflating the target
by gamma.  :func:`guarantee_threshold` reports the seed sizes at which the
corresponding high-probability guarantees kick in; those are asymptotic
and astronomically conservative, so desk-scale experiments rely on
measured success rates instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .centrality import (
    anti_centrality,
    branch_sizes_at,
    select_most_central,
    _take_extreme,
)
from .rng import RngHandle
from .trees import ShapeView

__all__ = [
    "FinderKind",
    "EstimateKind",
    "FinderParams",
    "SeedEstimate",
    "find_path_seed",
    "find_star_seed",
    "find_urrt_seed",
    "guarantee_threshold",
]


class FinderKind(str, Enum):
    PATH = "path"
    STAR = "star"
    URRT = "urrt"


class EstimateKind(str, Enum):
    #: Output claimed to be a subset of the seed.
    FIRST = "first"
    #: Output claimed to be a superset of the seed.
    SECOND = "second"


@dataclass(frozen=True)
class FinderParams:
    """Knobs shared by the finders.

    Parameters
    ----------
    l : int
        Seed size the finder is told to look for, >= 1.
    gamma : float
        Recovery slack in (0, 1); shrinks first-kind targets and inflates
        second-kind targets.
    epsilon : float
        Target failure probability in (0, 1); only the urrt finder and the
        guarantee thresholds consume it.
    jog_loh_c : float
        Positive constant in the star guarantee threshold.  Its true value
        is not published, so it is configuration; default 1.
    """

    l: int
    gamma: float
    epsilon: float
    jog_loh_c: float = 1.0

    def __post_init__(self) -> None:
        if self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not self.jog_loh_c > 0:  # also rejects NaN
            raise ValueError(f"jog_loh_c must be > 0, got {self.jog_loh_c}")


@dataclass(frozen=True)
class SeedEstimate:
    """A finder's answer, in shape labels.

    ``len(vertices) == target_size`` unless `deficit` is set (star finder
    with a center of insufficient degree).  `center` is the chosen most
    central vertex where the algorithm singles one out.
    """

    vertices: frozenset[int]
    kind: EstimateKind
    target_size: int
    deficit: bool = False
    center: int | None = None

    def to_text(self) -> str:
        """Sorted labels, one per line, then a JSON line with the kind,
        target size and deficit flag."""
        summary = {
            "kind": self.kind.value,
            "target_size": self.target_size,
            "deficit": self.deficit,
        }
        labels = "".join(f"{v}\n" for v in sorted(self.vertices))
        return labels + json.dumps(summary) + "\n"


def find_path_seed(
    view: ShapeView, params: FinderParams, rng: RngHandle
) -> SeedEstimate:
    """First-kind estimate for a path seed: the most central vertices.

    Target size is ``max(1, floor((1 - gamma) l))``.  Boundary ties in the
    centrality ranking are broken uniformly via `rng`.
    """
    _require_embedded_seed(view, params.l, minimum=2)
    target = max(1, _stable_floor((1.0 - params.gamma) * params.l))
    if target > view.n:
        raise ValueError(f"target size {target} exceeds tree size {view.n}")
    chosen = select_most_central(anti_centrality(view), target, rng)
    return SeedEstimate(chosen, EstimateKind.FIRST, target)


def find_star_seed(
    view: ShapeView, params: FinderParams, rng: RngHandle
) -> SeedEstimate:
    """Second-kind estimate for a star seed: center plus largest branches.

    Picks the most central vertex v (ties uniform), then the
    ``target - 1`` neighbors with the largest branches away from v, ties
    uniform, where ``target = ceil((1 + gamma) l)``.  If v has fewer
    neighbors than that, all of them are returned and `deficit` is set;
    at small n this is a measurable outcome, not an error.
    """
    _require_embedded_seed(view, params.l, minimum=2)
    target = _stable_ceil((1.0 + params.gamma) * params.l)
    profile = anti_centrality(view)
    (center,) = select_most_central(profile, 1, rng)
    branches = branch_sizes_at(profile, center)
    neighbors, sizes = np.array(list(branches.items()), dtype=np.int64).T
    deficit = neighbors.size < target - 1
    if deficit:
        chosen = frozenset(neighbors.tolist())
    else:
        chosen = _take_extreme(neighbors, sizes, target - 1, rng, smallest=False)
    return SeedEstimate(
        chosen | {center}, EstimateKind.SECOND, target, deficit, center
    )


def find_urrt_seed(
    view: ShapeView, params: FinderParams, rng: RngHandle
) -> SeedEstimate:
    """First-kind estimate for a urrt seed.

    With ``a = 2 ln(4 l^2 / eps) + 1`` the target size is
    ``max(1, floor(l / (3a)))``; the estimate is that many most-central
    vertices.  Shrinking eps grows a and therefore never grows the target.
    """
    _require_embedded_seed(view, params.l, minimum=1)
    a = _depth_scale(params.l, params.epsilon)
    target = max(1, _stable_floor(params.l / (3.0 * a)))
    chosen = select_most_central(anti_centrality(view), target, rng)
    return SeedEstimate(chosen, EstimateKind.FIRST, target)


def guarantee_threshold(kind: FinderKind, params: FinderParams) -> int | bool:
    """Where the finder's high-probability guarantee starts to apply.

    For path and star, returns the smallest seed size l admitted by the
    guarantee (natural logs throughout):

    * path: ``l >= (2 e^2 / gamma) max(ln(1/eps), ln(4 e^2))``
    * star: ``l >= max(jog_loh_c, 8 / gamma) ln(1/eps)``

    For urrt the seed size appears on both sides, so the condition
    ``l >= 64 a^2 ln(22 a l^2 / eps)`` is evaluated directly at
    ``params.l`` and a bool is returned.
    """
    if kind is FinderKind.PATH:
        scale = 2.0 * math.e**2 / params.gamma
        bound = scale * max(
            math.log(1.0 / params.epsilon), math.log(4.0 * math.e**2)
        )
        return max(1, _stable_ceil(bound))
    if kind is FinderKind.STAR:
        bound = max(params.jog_loh_c, 8.0 / params.gamma) * math.log(
            1.0 / params.epsilon
        )
        return max(1, _stable_ceil(bound))
    if kind is FinderKind.URRT:
        a = _depth_scale(params.l, params.epsilon)
        need = 64.0 * a * a * math.log(
            22.0 * a * params.l**2 / params.epsilon
        )
        return bool(params.l >= need)
    raise ValueError(f"unknown finder kind {kind!r}")


def _depth_scale(l: int, epsilon: float) -> float:
    """The scale ``a = 2 ln(4 l^2 / eps) + 1`` used by the urrt finder."""
    return 2.0 * math.log(4.0 * l * l / epsilon) + 1.0


def _require_embedded_seed(view: ShapeView, l: int, minimum: int) -> None:
    if l < minimum:
        raise ValueError(f"seed size must be >= {minimum}, got {l}")
    if view.n < l:
        raise ValueError(
            f"tree has {view.n} vertices but the seed is said to have {l}"
        )


def _stable_floor(x: float) -> int:
    """floor() that forgives float fuzz on exact products like 0.6 * 5."""
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return math.floor(x)


def _stable_ceil(x: float) -> int:
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return math.ceil(x)
