"""One digest over the canonical outputs of every verify path and route window.

A refactor of how sides are built and compared must leave every canonical
report and every route window byte-identical; this hashes them in a fixed
order, so any change to a bound, a shift, a window or a verdict changes the
digest.
"""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction

from qchar.affine import (
    partitions,
    specialized_character_series,
    trace_series,
    verify_proposition,
)
from qchar.identities import (
    CLASSICAL_NAMES,
    IdentitySpec,
    class1_identity,
    class2_identity,
    classical_identity,
    verify_identity,
)
from qchar.qseries import ProductSpec
from qchar.quadform import WEIGHT_ALTERNATING
from squares_oracle import kappa_sum

# sha256 of canonical_outputs(), recorded when a LatticeSum's JSON became
# its integer chain; only the 10 classical and family spec labels changed
# then, and every report and route window kept its bytes
DIGEST = "53bdebb3b48e39c639b88fd5c7bcd2ecd158a61fca9f0040a97c62ea5df0760f"

PROPOSITION_ORDERS = (Fraction(0), Fraction(3), Fraction(61, 2), Fraction(30))
ROUTE_BOUNDS = (Fraction(-3), Fraction(7, 3), Fraction(61, 2))
CLASSICAL_ORDERS = (
    Fraction(0), Fraction(1), Fraction(7, 2), Fraction(61, 2), Fraction(200)
)
FAMILY_ORDERS = (Fraction(0), Fraction(5), Fraction(11, 2), Fraction(20))
HAND_ORDERS = (Fraction(0), Fraction(5, 3), Fraction(10), Fraction(61, 2))


def hand_specs():
    """Specs whose sides exercise a fractional scale, a far shift, a negative
    minimum and a weighted sum that vanishes."""
    euler = classical_identity("euler")
    return (
        IdentitySpec(
            "half_scale",
            ProductSpec(((Fraction(1, 2), 1),)),
            kappa_sum(1, Fraction(3, 4), (Fraction(1, 4),), 0, WEIGHT_ALTERNATING),
        ),
        IdentitySpec(
            "far_shift",
            euler.lhs,
            replace(euler.rhs, const=1000 * euler.rhs.denom),
        ),
        IdentitySpec(
            "negative_minimum",
            ProductSpec(((Fraction(1), 2), (Fraction(2), -1))),
            kappa_sum(2, Fraction(1), (Fraction(3), Fraction(-2)), Fraction(-5, 3)),
        ),
        IdentitySpec(
            "vanishing",
            ProductSpec(((Fraction(1), 1),)),
            kappa_sum(1, Fraction(1), (Fraction(1),), Fraction(0), WEIGHT_ALTERNATING),
        ),
    )


def canonical_outputs():
    """(label, canonical JSON) pairs in a fixed order: reports, route windows and
    the classical and family specs."""
    pairs = [
        (parts, k) for n in range(1, 8) for parts in partitions(n) for k in range(n)
    ]
    for parts, k in pairs:
        for order in PROPOSITION_ORDERS:
            report = verify_proposition(parts, k, order)
            yield f"proposition {parts} {k} {order}", report.to_json()
    for parts, k in pairs:
        for bound in ROUTE_BOUNDS:
            window = specialized_character_series(parts, k, bound)
            yield f"character {parts} {k} {bound}", window.to_json()
            yield f"trace {parts} {k} {bound}", trace_series(parts, k, bound).to_json()
    specs = [classical_identity(name) for name in CLASSICAL_NAMES]
    for spec in specs:
        yield f"{spec.name} spec", spec.to_json()
        for order in CLASSICAL_ORDERS:
            yield f"{spec.name} {order}", verify_identity(spec, order).to_json()
    for build in (class1_identity, class2_identity):
        for m in (1, 2, 3):
            spec = build(m)
            yield f"{spec.name} {m} spec", spec.to_json()
            for order in FAMILY_ORDERS:
                yield f"{spec.name} {m} {order}", verify_identity(spec, order).to_json()
    for spec in hand_specs():
        for order in HAND_ORDERS:
            yield f"{spec.name} {order}", verify_identity(spec, order).to_json()


def test_canonical_outputs_are_unchanged():
    h = hashlib.sha256()
    count = 0
    for label, data in canonical_outputs():
        h.update(label.encode())
        h.update(json.dumps(data, sort_keys=True, separators=(",", ":")).encode())
        count += 1
    assert count == 2470
    assert h.hexdigest() == DIGEST
