"""Finite fields, classical matrix groups, and permutation realizations."""

from .gf import FiniteField, field_make
from .matrix import Matrix
from .classical import (
    ClassicalGroupSpec,
    classical_group,
    form_matrix,
    lie_order,
    long_root_element,
    matrix_group_order,
    preserves_form,
    scalar_count,
)
from .projective import (
    ProjectiveAction,
    extend_by_autos,
    frobenius_perm,
    graph_auto_perm,
    projective_points,
)
from .groupspec import RealizedGroup, realize, realize_group

__all__ = [
    "FiniteField", "field_make", "Matrix", "ClassicalGroupSpec",
    "classical_group", "form_matrix", "lie_order", "long_root_element",
    "matrix_group_order", "preserves_form", "scalar_count",
    "ProjectiveAction", "extend_by_autos", "frobenius_perm",
    "graph_auto_perm", "projective_points",
    "RealizedGroup", "realize", "realize_group",
]
