"""Top-level invariants of an equivariant toric variety.

The divisor class group is the cokernel of the divisor character map;
the Brauer kernel is the kernel of the map this induces on second group
cohomology, computed relative to the splitting group carried by the
fan.  Reports aggregate both together with the combinatorial facts of
the fan, computing the truncation-dependent fields on the pure
divisorial truncation when needed.
"""

from __future__ import annotations

from .cohomology import _shapiro_kernel
from .errors import StageError, TorikaError
from .fans import GFan, is_smooth, orbit_count, ray_orbits
from .linalg import FinAbGroup, cokernel
from .structure import (character_lattice, is_pure_divisorial,
                        pure_divisorial_truncation, ray_matrix,
                        tropical_int_check)
from .value import Value


def class_group(fan: GFan) -> FinAbGroup:
    """The divisor class group of the variety after base change.

    For a smooth fan this is the Picard group: the cokernel of the map
    sending a character to its divisor, presented by the matrix whose
    rows are the ray generators; the group action plays no part.
    """
    fan.require_valid()
    if not is_smooth(fan):
        raise ValueError("the class group computation expects a smooth fan")
    return cokernel(ray_matrix(fan))


def brauer_kernel(fan: GFan) -> FinAbGroup:
    """The algebraic Brauer classes of the variety, at the fan's group level.

    Computed as the kernel of the map induced on H^2 by the divisor
    character map M -> Z^rays, by Shapiro restriction to the stabilizer
    of one ray per orbit.  The map is the ray matrix, equivariant as the
    valid fan's rays are permuted exactly, so Z^rays is never built.
    With no rays this is all of H^2(G, M), the bare torus's Brauer group.
    The fan is smooth: its maximal cones are primitive rays or the zero cone.
    """
    fan.require_valid()
    if not is_pure_divisorial(fan):
        raise ValueError("the Brauer kernel expects a pure divisorial fan")
    return _shapiro_kernel(character_lattice(fan), ray_matrix(fan)._r,
                           ray_orbits(fan))


class InvariantReport(Value):
    """All computed invariants of one fan, bundled.

    Fields smooth, pure_divisorial, orbit_count, ray_orbit_summary,
    class_group, brauer_kernel, tropical_check and splitting_group.  The
    class group, Brauer kernel and tropical check are computed on the pure
    divisorial truncation whenever the fan has larger cones; orbit data
    always refers to the fan as given.  splitting_group records the group
    the cohomology was taken over: the Brauer kernel is relative to that
    level.  tropical_check is always True: a failed check raises instead.
    """

    __slots__ = _fields = ("smooth", "pure_divisorial", "orbit_count", "ray_orbit_summary",
                           "class_group", "brauer_kernel", "tropical_check", "splitting_group")


def _stage(name, thunk):
    """Run a report stage; a bug leaves it tagged with `torika_stage`."""
    try:
        return thunk()
    except TorikaError as exc:
        raise StageError(name, exc) from exc
    except Exception as exc:
        if not hasattr(exc, "torika_stage"):
            exc.torika_stage = name
        raise


def _truncation_invariants(fan: GFan):
    """(truncation, class group, Brauer kernel) of a valid fan, as stages."""
    working = _stage("truncation", lambda: pure_divisorial_truncation(fan))
    return (working, _stage("class group", lambda: class_group(working)),
            _stage("Brauer kernel", lambda: brauer_kernel(working)))


def full_report(fan: GFan, bound: int = 5) -> InvariantReport:
    """Assemble every invariant of the fan into one report."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    fan.require_valid()
    smooth = _stage("smoothness", lambda: is_smooth(fan))
    pure = is_pure_divisorial(fan)
    orbits = _stage("orbit count", lambda: orbit_count(fan))
    summary = tuple(
        (len(orbit), stab.order)
        for orbit, stab in _stage("ray orbits", lambda: ray_orbits(fan))
    )
    working, cls, brauer = _truncation_invariants(fan)
    tropical = _stage("tropical check",
                      lambda: tropical_int_check(working, bound).passed)
    return InvariantReport(smooth, pure, orbits, summary, cls, brauer, tropical,
                           fan.group.name or f"order-{fan.group.order}")
