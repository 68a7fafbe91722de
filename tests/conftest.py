import random

import pytest

from localantimagic import (Family, FamilyParams, LabeledGraph, build_family,
                            verify_local_antimagic)
from localantimagic.oracle import _plain_valid


@pytest.fixture(scope="session")
def cross_check():
    """`cross_check(g, samples=50, seed=0)`: True iff the main verifier
    and the oracle-side validity check agree on g's labeling and on
    `samples` random relabelings of it, else AssertionError."""

    def check(g: LabeledGraph, samples: int = 50, seed: int = 0) -> bool:
        rng = random.Random(seed)
        order = sorted(g.edges)
        labelings = [[g.labels[e] for e in order]]
        base = list(range(1, g.q + 1))
        for _ in range(samples):
            labelings.append(rng.sample(base, g.q))
        for labs in labelings:
            h = LabeledGraph(
                part=dict(g.part),
                edges=set(g.edges),
                labels=dict(zip(order, labs)),
            )
            if verify_local_antimagic(h).is_local_antimagic != _plain_valid(h):
                raise AssertionError(
                    f"verifier/oracle disagreement on labeling {labs}"
                )
        return True

    return check


@pytest.fixture(scope="session")
def g45():
    """G_4(5): crossed family from the 9x9 example matrix."""
    return build_family(FamilyParams(Family.M2, 2, 4), "crossed")


@pytest.fixture(scope="session")
def g55():
    """G_5(5): crossed family from the 11x9 example matrix."""
    return build_family(FamilyParams(Family.M3, 2, 4), "crossed")


@pytest.fixture(scope="session")
def g433():
    """G_4(3,3): merged family, r = s = 1."""
    return build_family(FamilyParams(Family.M2, 2, 4, (1, 1)), "merged")


@pytest.fixture(scope="session")
def g533():
    """G_5(3,3): merged 6-regular family, r = s = 1."""
    return build_family(FamilyParams(Family.M3, 2, 4, (1, 1)), "merged")
