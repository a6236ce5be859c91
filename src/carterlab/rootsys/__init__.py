"""Root systems, Weyl groups, subsystems, twists and maximal-torus orders."""

from .roots import (
    RootSystem,
    SUPPORTED,
    highest_root,
    is_closed_abelian,
    omega_fixed_roots,
    pairing,
    root_system,
)
from .weyl import (
    F_CLASS_CAP,
    TorusClass,
    Twist,
    WeylGroupRep,
    f_conjugacy_classes,
    flip_twist,
    identity_twist,
    order_polynomial,
    torus_order,
    triality_twist,
    twist_by_name,
    weyl_group,
)
from .subsystems import Subsystem, borel_de_siebenthal, classify_component, subsystem_label
from .e6scan import ClassScanResult, e6_centralizer_scan, scan_order3_self_normalizers

__all__ = [
    "RootSystem", "SUPPORTED", "highest_root",
    "is_closed_abelian", "omega_fixed_roots", "pairing",
    "root_system", "F_CLASS_CAP", "TorusClass", "Twist", "WeylGroupRep",
    "f_conjugacy_classes", "flip_twist", "identity_twist",
    "order_polynomial", "torus_order", "triality_twist", "twist_by_name",
    "weyl_group", "Subsystem", "borel_de_siebenthal", "classify_component",
    "subsystem_label", "ClassScanResult", "e6_centralizer_scan",
    "scan_order3_self_normalizers",
]
