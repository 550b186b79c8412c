"""Exact computation of equivariant annular Khovanov homology.

The package computes, over the bivariate ground ring and its
specializations, the annular link homology built from the cube of
resolutions and the annular-degree-preserving part of the rank-2
Frobenius TQFT, together with the localized (Lee-type) theory, its
canonical generators, and the dotted Temperley-Lieb calculus.
"""

from .complexes import (
    build_complex,
    verify_beta,
    verify_d_squared,
    verify_grading,
)
from .diagram import (
    AnnularDiagram,
    load_diagram,
    loads_diagram,
    save_diagram,
)
from .homology import (
    canonical_generator,
    canonical_span_rank,
    lee_rank,
    poincare_table,
    smith_normal_form,
    verify_canonical,
)
from .ring import (
    GENERIC,
    GF,
    INT,
    QH,
    RAT,
    A0,
    A1,
    BivariatePoly,
    alpha_eval,
)
from .tl import (
    DottedTangle,
    TLMorphism,
    enumerate_reduced,
    kernel_rank_experiment,
    reduce_tangle,
    spin_evaluate,
    tl_compose,
)

__version__ = "0.1.0"
