"""Answer checkers, run outside the timed region.

Each checker takes what the program returned and returns None when the
answer is right, or a short fault label when it is not.  The references are
the exact Hanan-grid oracle (``oracle_plan`` / ``oracle_arrivals``), the L1
lower bound, and ``validate_path``.
"""

from __future__ import annotations

import traceback
from fractions import Fraction

# Fault labels.  The first two are the known planner faults plan_gated
# keeps; anything else is unexpected.
SLIDE_WAIT = "slide-instead-of-wait"
EARLY_SETTLE = "fast-settles-early"
KNOWN_FAULTS = (SLIDE_WAIT, EARLY_SETTLE)


def classify_raise(exc):
    """Label an exception escaping fast_plan."""
    frames = traceback.extract_tb(exc.__traceback__)
    if isinstance(exc, AssertionError) and frames and frames[-1].name == "fast_plan":
        # the fallback's own check: the naive rerun disagrees with the
        # arrival the fast engine settled
        return EARLY_SETTLE
    return "raised-%s" % type(exc).__name__


def path_fault(rp, scene, path, arrival):
    """None if path is a legal witness of arrival in scene, else a label."""
    rep = rp.validate_path(scene, path, arrival)
    if rep.ok:
        return None
    codes = rep.codes()
    if codes == {"NonMonotoneSubpath"}:
        return SLIDE_WAIT
    return "invalid-path:" + ",".join(sorted(codes))


def check_plan(rp, scene, result, expected):
    """A fast_plan result against the oracle's arrival."""
    if result.arrival != expected:
        return "wrong-arrival"
    return path_fault(rp, scene, result.path, result.arrival)


def check_open_plan(rp, scene, result):
    """A fast_plan result on a bench scene, certified without the oracle
    when the arrival meets the L1 lower bound: a valid path that arrives at
    L1 / vmax cannot be beaten.  Otherwise the oracle decides."""
    bound = Fraction(rp.l1_distance(scene.source, scene.dest)) / Fraction(scene.vmax)
    if result.arrival < bound:
        return "below-l1-bound"
    if result.arrival != bound:
        return check_plan(rp, scene, result, rp.oracle_plan(scene))
    return path_fault(rp, scene, result.path, result.arrival)


def check_witness(rp, scene, point, answer, expected):
    """A ShortestPathMap.query answer (arrival, path) at point."""
    arrival, path = answer
    if arrival != expected:
        return "wrong-arrival"
    target = rp.Scene(edges=scene.edges, vmax=scene.vmax, source=scene.source, dest=point)
    return path_fault(rp, target, path, arrival)


def check_arrival(arrival, expected):
    return None if arrival == expected else "wrong-arrival"


def tally(verdicts, rounds, allowed=()):
    """Fault counts of one round's verdicts, the failed operations over all
    rounds (every round repeats the same operations), and the fault labels
    outside allowed."""
    faults = {}
    for v in verdicts:
        if v is not None:
            faults[v] = faults.get(v, 0) + 1
    unexpected = sorted(f for f in faults if f not in allowed)
    return faults, sum(faults.values()) * rounds, unexpected
