"""Polar degree of arrangement products and the hypersurface-side numeric
formulas: isolated-singularity counts, plane-curve first Betti numbers,
Milnor-fiber sphere counts and the twisted-homology bound.

The polar degree of a reduced arrangement product equals the top Betti
number of the projective complement, which is also the number of spheres in
the generic affine part; every report double-checks the Euler-characteristic
identity behind that equality on an explicitly sampled generic hyperplane.
"""

from __future__ import annotations

from fractions import Fraction

from .arrangement import (
    Arrangement,
    intersection_lattice,
    is_essential,
    poincare_projective,
    projective_betti,
    restrict_to_subspace,
    sample_generic_subspace,
)
from .errors import (
    InconsistentCount,
    InconsistentMilnorData,
    InternalInconsistency,
    NonIntegerMu,
    NonIsolated,
    PreconditionError,
    _Record,
    _set,
)

CLASS_ZERO = "ZERO"
CLASS_BOOLEAN_B1 = "BOOLEAN_B1"
CLASS_NEARPENCIL_B2 = "NEARPENCIL_B2"
CLASS_GENERAL = "GENERAL"

DEFAULT_SEED = 20260810


class PolarReport(_Record):
    """Numeric summary of the gradient map of the defining product."""

    __slots__ = _fields = ("degree", "top_betti", "affine_sphere_count",
                           "essential", "bound_satisfied", "classification")

    def __init__(self, degree, top_betti, affine_sphere_count, essential,
                 bound_satisfied, classification):
        _set(self, "degree", degree)
        _set(self, "top_betti", top_betti)
        _set(self, "affine_sphere_count", affine_sphere_count)
        _set(self, "essential", essential)
        _set(self, "bound_satisfied", bound_satisfied)
        _set(self, "classification", classification)


def _euler(poly):
    return poly(-1)


def _classify(arr: Arrangement, degree):
    if degree == 0:
        return CLASS_ZERO
    d = arr.num_hyperplanes
    ambient = arr.ambient_dim
    if degree == 1 and d == ambient and is_essential(arr):
        # d independent forms in dimension d: the lattice is boolean
        return CLASS_BOOLEAN_B1
    if degree == 2 and d == ambient + 1 and is_essential(arr):
        # corank one: hyperplane i lies on the unique circuit exactly when
        # the others still span
        lat = intersection_lattice(arr)
        circuit = [
            i for i in range(d)
            if lat.closure_codim(set(range(d)) - {i}) == arr.rank
        ]
        if len(circuit) == 3:
            return CLASS_NEARPENCIL_B2
    return CLASS_GENERAL


def lefschetz_euler_check(arr: Arrangement, seed=DEFAULT_SEED):
    """Both sides of the generic-hyperplane Euler identity.

    Returns ((-1)^n (chi(M) - chi(M cut by a generic hyperplane)), b_n(M)),
    the two sides computed independently: the left from an explicitly
    sampled generic hyperplane restriction, the right from the lattice.
    """
    n = arr.ambient_dim - 1
    betti = projective_betti(arr)
    top = betti[n] if n < len(betti) else 0
    if n == 0:
        # no generic hyperplane exists inside a point
        return top, top
    u = sample_generic_subspace(arr, arr.ambient_dim - 1, seed)
    section = restrict_to_subspace(arr, u)
    chi_m = _euler(poincare_projective(arr))
    chi_section = _euler(poincare_projective(section))
    lhs = (-1) ** n * (chi_m - chi_section)
    return lhs, top


def polar_degree(arr: Arrangement, verify=True, seed=DEFAULT_SEED) -> PolarReport:
    """Degree of the gradient map of the reduced defining product.

    Equals the top projective Betti number; positive exactly when the
    arrangement is essential, in which case the hyperplane count is bounded
    by ambient dimension - 1 + degree.
    """
    n = arr.ambient_dim - 1
    betti = projective_betti(arr)
    degree = betti[n] if n < len(betti) else 0
    essential = is_essential(arr)
    if verify:
        lhs, rhs = lefschetz_euler_check(arr, seed)
        if not lhs == rhs == degree:
            raise InternalInconsistency("Euler identity failed")
    if (degree > 0) != essential:
        raise InternalInconsistency(
            "polar degree positivity disagrees with essentiality"
        )
    bound = degree == 0 or arr.num_hyperplanes <= n + degree
    return PolarReport(
        degree=degree,
        top_betti=degree,
        affine_sphere_count=degree,
        essential=essential,
        bound_satisfied=bound,
        classification=_classify(arr, degree),
    )


def polar_invariant(arr: Arrangement, verify=True, seed=DEFAULT_SEED) -> int:
    """Attached top-cell count of the affine Milnor fiber: hyperplane count
    times the polar degree."""
    return arr.num_hyperplanes * polar_degree(arr, verify=verify, seed=seed).degree


def affine_part_sphere_count(arr: Arrangement) -> int:
    """Number of spheres in the bouquet homotopy type of the generic affine
    part of the arrangement union (the Folkman-complex model when the
    arrangement is essential)."""
    return polar_degree(arr).degree


def isolated_singularity_degree(d, n, milnor_numbers) -> int:
    """(d-1)^n minus the total Milnor number of the isolated singularities."""
    if d < 1 or n < 1:
        raise PreconditionError("need d >= 1 and n >= 1")
    if any(m < 0 for m in milnor_numbers):
        raise PreconditionError("Milnor numbers are nonnegative")
    value = (d - 1) ** n - sum(milnor_numbers)
    if value < 0:
        raise InconsistentMilnorData(
            f"total Milnor number {sum(milnor_numbers)} exceeds (d-1)^n = {(d - 1) ** n}"
        )
    return value


def isolated_singularity_report(d, n, milnor_numbers):
    """Degree plus textual annotations (cone case, open classification)."""
    value = isolated_singularity_degree(d, n, milnor_numbers)
    notes = []
    if value == 0:
        notes.append("degree 0: the hypersurface is a cone")
    if value == 1 and n > 2 and d > 2:
        notes.append(
            "advisory: degree 1 with n > 2, d > 2 is conjectured impossible "
            "for non-cones; treat the input data with suspicion"
        )
    return {"degree": value, "notes": notes}


def quasihomogeneous_milnor(weights, degree) -> int:
    """Milnor number of a weighted-homogeneous isolated singularity:
    product of (degree - w) / w over the weights."""
    degree = Fraction(degree)
    acc = Fraction(1)
    for w in weights:
        w = Fraction(w)
        if w <= 0:
            raise NonIsolated("weights must be positive")
        factor = (degree - w) / w
        if factor <= 0:
            raise NonIsolated(f"factor for weight {w} is not positive")
        acc *= factor
    if acc.denominator != 1:
        raise NonIntegerMu(f"Milnor product {acc} is not an integer")
    return acc.numerator


def plane_curve_affine_b1(g, m, d) -> int:
    """First Betti number of the affine part of an irreducible plane curve
    of genus g with m identifications and degree d."""
    if d < 1:
        raise PreconditionError("degree must be at least 1")
    return 2 * g + m + d - 1


def milnor_fiber_sphere_count(critical_count, e, n) -> int:
    """Sphere count of the Milnor-fiber section: critical points minus
    (e-1)^(n+1)."""
    smooth = (e - 1) ** (n + 1)
    if critical_count < smooth:
        raise InconsistentCount(
            f"critical count {critical_count} below smooth contribution {smooth}"
        )
    return critical_count - smooth


def twisted_betti_bound(betti, rep_dim):
    """Upper bound for twisted homology of a minimal space: rep_dim * b_q."""
    if rep_dim < 1:
        raise PreconditionError("representation dimension must be at least 1")
    return [rep_dim * b for b in betti]
