"""Permutation-group engine: stabilizer chains, searches, Carter tools."""

from .perm import Perm
from .group import PermGroup
from .search import (
    are_conjugate_elements,
    are_conjugate_subgroups,
    conjugacy_classes,
    element_centralizer,
    subgroup_centralizer,
    subgroup_normalizer,
)
from .sylow import (
    is_nilpotent,
    lower_central_series,
    normal_closure,
    p_part,
    prime_factors,
    sylow_subgroup,
)
from .quotient import quotient_group, is_normal, QuotientProjection
from .carter import (
    SubgroupClassSet,
    carter_class_containing_sylow2,
    carter_subgroups,
    check_syl2_criterion,
    is_carter_witness,
)
from .io import group_from_json, group_to_json, load_group

__all__ = [
    "Perm", "PermGroup",
    "are_conjugate_elements", "are_conjugate_subgroups",
    "conjugacy_classes", "element_centralizer", "subgroup_centralizer",
    "subgroup_normalizer", "is_nilpotent", "lower_central_series",
    "normal_closure", "p_part", "prime_factors", "sylow_subgroup",
    "quotient_group", "is_normal", "QuotientProjection",
    "SubgroupClassSet", "carter_class_containing_sylow2",
    "carter_subgroups", "check_syl2_criterion", "is_carter_witness",
    "group_from_json", "group_to_json", "load_group",
]
