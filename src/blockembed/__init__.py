"""Embeddings of finite metric spaces into block-decomposed sequence spaces.

The package builds two explicit constructions and certifies their distance
envelopes pair by pair:

* a strong uniform embedding of any pointed finite metric space into a
  sup-normed block sum, via hierarchies of greedy maximal nets and
  weighted Frechet coordinates (:mod:`blockembed.proper`);
* a Lipschitz embedding of finite l_p point sets into an l_p block sum,
  plus its composition with eps/2-net rounding into a coarse bi-Lipschitz
  embedding (:mod:`blockembed.lp_coarse`).

:mod:`blockembed.metric` supplies the domain types and the verifier side
(moduli and envelope reports); :mod:`blockembed.cli` the
command-line harness.
"""

__version__ = "0.1.0"

from .blocks import (
    BlockIsoModel,
    BlockVector,
    DimensionMismatch,
    NonpositiveK,
    pair_index,
    pairwise_distance_matrix,
)
from .metric import (
    AsymmetricMatrix,
    BoundsReport,
    FiniteMetricSpace,
    LengthMismatch,
    MetricError,
    ModuliProfile,
    NegativeEntry,
    Net,
    NonzeroDiagonal,
    PointedSpace,
    TooFewPoints,
    TriangleViolation,
    ZeroOffDiagonal,
    greedy_maximal_net,
    min_positive_distance,
    moduli_profile,
    validate_metric,
    verify_bounds,
)
from .lp_coarse import (
    CoarseConstants,
    CoarseEmbedding,
    LpEmbedding,
    LpParams,
    LpPointSet,
    NormBelowOne,
    SizeCapExceeded,
    coarse_embed,
    embed_set_lp,
    grid_net,
    max_rounding_deviation,
    net_round,
    normalize_pointed,
    verify_coarse,
    verify_lp,
)
from .proper import (
    CODOMAIN_P,
    WEIGHT_SERIES_SUM,
    AnnulusOutOfRange,
    NegativeRadius,
    NetHierarchy,
    NonpositiveArgument,
    PointOutsideBall,
    ProperEmbedding,
    ProperParams,
    annulus_index,
    build_hierarchy,
    embed_point_proper,
    embed_space_proper,
    log_growth,
    make_proper_params,
    separation_envelope,
    tier_weight,
    verify_proper,
)

__all__ = [name for name in dir() if not name.startswith("_")]
