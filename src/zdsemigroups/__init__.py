"""Workbench for commutative zero-divisor semigroups on complete graphs
and complete graphs with one pendant vertex.

Three independent pipelines compute class counts (closed formulas,
condition-based generators, and a brute-force table search) and the
reporting layer cross-checks them against each other and against
previously tabulated values.
"""

from .classify import ClassCatalog, SquareProfile, canonical_form, square_profile
from .counting import (
    clique_class_count,
    count_partitions_exact,
    fixed_points_formula,
    generate_clique_classes,
    pendant_case_breakdown,
)
from .errors import BudgetError, UsageError
from .graphs import (
    CompleteK,
    CompletePlusEnd,
    SimpleGraph,
    build_zd_graph,
    graph_to_dot,
    recognize_target,
)
from .search import enumerate_labeled, oracle_classes, seed_partial_table
from .tables import (
    AssocWitness,
    MulTable,
    check_associativity,
    is_zd_semigroup,
    mul,
    zero_divisors,
)

__version__ = "0.1.0"
