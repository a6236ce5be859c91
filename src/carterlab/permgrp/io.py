"""Generator I/O: JSON objects with 0-based disjoint cycles.

Format: ``{"degree": n, "generators": [[cycle, ...], ...]}`` where each
cycle is a non-empty array of integer points; fixed points are omitted.
"""

from __future__ import annotations

import json

from ..errors import CapExceeded, InputError
from .perm import Perm
from .group import PermGroup

DEGREE_CAP = 10_000     # the most points of any domain: files, Sym, Alt, projective


def group_to_json(G: PermGroup) -> str:
    payload = {
        "degree": G.degree,
        "generators": [[list(c) for c in g.cycles()] for g in G.generators],
    }
    return json.dumps(payload)


def group_from_json(text: str) -> PermGroup:
    """The group a group file describes; InputError if it is malformed."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise InputError("group file nests JSON too deeply") from None
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if not isinstance(payload, dict):
        raise InputError("a group file holds one JSON object")
    degree, generators = payload.get("degree"), payload.get("generators")
    if type(degree) is not int or degree < 1:       # bool is not a degree
        raise InputError("degree must be a positive integer")
    if degree > DEGREE_CAP:     # checked before any permutation is built
        raise CapExceeded(f"degree {degree} exceeds {DEGREE_CAP}")
    if not (isinstance(generators, list) and all(
            isinstance(cycles, list) and all(
                isinstance(c, list) and c and all(type(a) is int for a in c)
                for c in cycles)
            for cycles in generators)):
        raise InputError("generators must be lists of non-empty cycles of integers")
    try:
        gens = [Perm.from_cycles(degree, [tuple(c) for c in cycles])
                for cycles in generators]
    except ValueError as exc:       # a point out of range or repeated
        raise InputError(str(exc)) from None
    return PermGroup(gens, degree)


def load_group(path: str) -> PermGroup:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc)) from None
    return group_from_json(text)
