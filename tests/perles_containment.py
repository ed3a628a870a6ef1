"""Containment checks for the Perles reduced pattern, run as a standalone
script so the caller can bound its runtime.

Verifies that the rehomogenized ideal prints the pinned basis (by the
sha256 of its lines), that every reduced generator of the slack ideal has
normal form 0 modulo the rehomogenized ideal, and that every rehomogenized
generator lies in the radical of the slack ideal.  Prints each stage with
its elapsed time, basis size and engine work (pairs pushed and reductions
run since the previous stage) as it finishes, and "ok" on success.
"""

import hashlib
import sys
import time

from slackkit import (engine, normal_form, radical_membership,
                      rehomogenize_ideal, set_ones, slack_ideal,
                      specific_slack_matrix)
from slackkit.builtins import PERLES_ONES

# sha256 of the rehomogenized basis' to_strings(), joined by newlines: 3,106
# elements
BASIS_SHA256 = "0ae50bd574896c6607bf419eb92a249681b9fb3efeb9785cd3cb2ad82e85795e"


def count_engine_work():
    """Count the engine's pairs pushed and reductions run, as
    ``engine_work`` in test_engine.py does: every tuple pushed on the pair
    heap, inputs included, and every Reducer.reduce call."""
    work = {"pairs": 0, "reductions": 0}
    push, reduce = engine.heappush, engine.Reducer.reduce

    def counted_push(heap, item):
        if isinstance(item, tuple):
            work["pairs"] += 1
        push(heap, item)

    def counted_reduce(self, terms):
        work["reductions"] += 1
        return reduce(self, terms)

    engine.heappush = counted_push
    engine.Reducer.reduce = counted_reduce
    return work


def main():
    start = time.perf_counter()
    work = count_engine_work()

    def stage(name, size):
        print(f"{name}: {time.perf_counter() - start:.1f} s, "
              f"{size} basis elements, {work['pairs']} pairs, "
              f"{work['reductions']} reductions", flush=True)
        work.update(pairs=0, reductions=0)

    perles = specific_slack_matrix("perles-reduced")
    Y = set_ones(perles, PERLES_ONES)
    H = rehomogenize_ideal(8, Y)
    stage("rehomogenized ideal done", len(H.groebner_basis()))
    digest = hashlib.sha256("\n".join(H.to_strings()).encode()).hexdigest()
    if digest != BASIS_SHA256:
        print(f"rehomogenized basis has sha256 {digest}, not {BASIS_SHA256}")
        return 1
    I = slack_ideal(8, perles)
    stage("slack ideal done", len(I.groebner_basis()))
    basis = H.groebner_basis()
    for g in I.generators:
        if not normal_form(g, basis, H.order).is_zero():
            print(f"generator not in rehomogenized ideal: {g.to_string()}")
            return 1
    stage("slack ideal contained in the rehomogenized ideal", len(basis))
    for h in H.generators:
        if not radical_membership(h, I):
            print(f"generator not in radical: {h.to_string()}")
            return 1
    stage("rehomogenized ideal contained in the radical", len(I.groebner_basis()))
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
