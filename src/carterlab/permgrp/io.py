"""Generator I/O: JSON objects with 0-based disjoint cycles.

Format: ``{"degree": n, "generators": [[cycle, ...], ...]}`` where each
cycle is an array of points; fixed points are omitted.
"""

from __future__ import annotations

import json

from .perm import Perm
from .group import PermGroup


def group_to_json(G: PermGroup) -> str:
    payload = {
        "degree": G.degree,
        "generators": [[list(c) for c in g.cycles()] for g in G.generators],
    }
    return json.dumps(payload)


def group_from_json(text: str) -> PermGroup:
    payload = json.loads(text)
    degree = payload["degree"]
    if not isinstance(degree, int) or degree < 1:
        raise ValueError("degree must be a positive integer")
    gens = [Perm.from_cycles(degree, [tuple(c) for c in cycles])
            for cycles in payload["generators"]]
    return PermGroup(gens, degree)


def load_group(path: str) -> PermGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_json(fh.read())
