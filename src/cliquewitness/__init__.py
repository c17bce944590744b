"""Degree-4 sum-of-squares witness laboratory for hidden-clique instances.

Builds the pseudo-moment witness over subset indices, verifies its algebraic
and spectral structure (Johnson-scheme projections, exact deviation
expansions, kernel identities), enumerates the labeled-graph combinatorics
behind the trace moment bounds, and runs detection tests plus reproducible
experiments over random instances.
"""

__version__ = "1.0.0"

from .subsets import EMPTY, SubsetIndexer, VertexPair, dim, index_of, set_of
from .models import (
    GAUSSIAN_METHOD,
    GaussianInstance,
    GraphInstance,
    clique_indicator,
    dump_edges,
    sample_er,
    sample_gaussian,
    sample_planted,
)
from .params import WitnessParams, derive_alphas
from .witness import (
    FeasibilityReport,
    MomentMatrix,
    build_matrix,
    check_sos_feasibility,
    dump_matrix,
    extract_blocks,
    load_matrix,
)
from .spectral import (
    ConditionReport,
    ProjectorFamily,
    PsdReport,
    SchurReport,
    eigenvalues_expected_H22,
    evaluate_W_conditions,
    expected_H12_norms,
    expected_block,
    psd_check,
    rect_operator_norm,
    schur_condition_check,
    sym_operator_norm,
)
from .decomposition import (
    EDGE_CHOICES,
    ComponentKind,
    ComponentMatrix,
    KernelReport,
    build_component,
    class1_sum_norm,
    class1_sum_operator,
    component_norm,
    component_operator,
    kernel_identities,
    projected_norm,
    verify_expansion_H12,
    verify_expansion_H22,
)
from .labelings import (
    ExpectedTraceResult,
    LabelingPartition,
    NormBoundResult,
    PrimitiveGraph,
    TraceBoundParams,
    build_cyclic_ribbon,
    build_primitive,
    constrained_family_v_star,
    count_bound,
    count_contributing,
    enumerate_contributing,
    exact_expected_trace,
    norm_bound,
    star_ribbon_members,
    v_star,
)
from .detect import (
    DetectionOutcome,
    TestConfig,
    clique_lower_bound,
    scale_witness,
    test_clique,
    test_comb,
    test_submatrix,
)
from .harness import EXPERIMENTS, ExperimentConfig, ResultRecord, emit, run
