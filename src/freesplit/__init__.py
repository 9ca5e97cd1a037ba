"""Partition calculus for free splittings relative to a rose.

Modules:

* :mod:`freesplit.partitions` - directions, partitions, pairwise predicates
* :mod:`freesplit.blowup` - graphs of groups, blow-ups, boundary shapes
* :mod:`freesplit.freegroup` - words, automorphisms, Whitehead machinery
* :mod:`freesplit.complexes` - splitting graphs, cliques, the rose graph
* :mod:`freesplit.verify` - runnable verifiers with witness reports
* :mod:`freesplit.cli` - command-line driver
* :mod:`freesplit.values` - the base of the immutable value classes
"""

from .partitions import (
    Partition,
    class_of,
    compatible,
    corner_masks,
    crosses,
    encode_class,
    enumerate_ideal_edges,
    enumerate_splitting_classes,
    is_cagey,
    is_ideal,
    is_thick,
    petal_class,
    rose_compatible,
)
from .blowup import (
    BoundaryType,
    GraphOfGroups,
    IncompatibleFamilyError,
    blow_up,
    boundary_splitting,
)
from .freegroup import (
    CyclicWord,
    FreeAutomorphism,
    Word,
    connected_no_cutvertex,
    is_simple,
    nielsen,
    twist,
    whitehead_automorphism,
    whitehead_graph,
    whitehead_minimize,
)
from .complexes import (
    KLocalGraph,
    SplittingGraph,
    build_star_graph,
    enumerate_cliques,
    k_graph_local,
    maximal_cliques,
    rose_vertices,
)
from .verify import VerificationReport, run_battery, run_verifier

__version__ = "0.1.0"
