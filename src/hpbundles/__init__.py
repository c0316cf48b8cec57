"""Exact Hodge-Poincare series for GIT stratifications and moduli of
vector bundles over a smooth projective curve.

Everything is computed over the rationals with no floating point; final
moduli polynomials are certified integral and certified against closed
forms before being returned.
"""

from .errors import DivisionRemainderError, DomainError, InternalCheckError
from .poly import (
    ONE,
    U,
    V,
    LaurentPoly,
    dual_substitute,
    exact_divide,
    negate_square_substitute,
    specialize_diagonal,
    uv_power,
)
from .series import FactoredRational, TruncatedSeries, series_expand
from .blocks import hp_bgl, hp_bsl, hp_jacobian, hp_nt_zts, hp_plusminus_bt, hp_plusminus_jac_pair
from .hntypes import (
    HNType,
    ReductiveClass,
    codim_deeper_stratum,
    codim_hn,
    enumerate_hn_types,
    enumerate_reductive_classes,
)
from .convex import (
    BetaIndex,
    WeightSystem,
    index_set,
    min_norm_point,
    stratum_codim,
)
from .semistable import (
    SemistableSeries,
    hp_ss_rank2_closed_form,
    hp_ss_series,
    moduli_dimension,
    ss_closed_form,
    stable_coprime_polynomial,
)
from .rank2 import (
    StratumRecord,
    assemble_stable_hp,
    deligne_rank2_closed_form,
    hodge_deligne_stable_rank2,
    hp_moduli_stable_rank2,
    moduli_dimension_rank2,
    rank2_strata,
    stable_rank2_closed_form,
    stratum_beta1,
    stratum_beta2,
    stratum_gl2,
    stratum_t,
)

__version__ = "0.1.0"

__all__ = [
    "DivisionRemainderError",
    "DomainError",
    "InternalCheckError",
    "LaurentPoly",
    "ONE",
    "U",
    "V",
    "uv_power",
    "dual_substitute",
    "negate_square_substitute",
    "specialize_diagonal",
    "exact_divide",
    "FactoredRational",
    "TruncatedSeries",
    "series_expand",
    "hp_jacobian",
    "hp_bgl",
    "hp_bsl",
    "hp_plusminus_bt",
    "hp_plusminus_jac_pair",
    "hp_nt_zts",
    "HNType",
    "ReductiveClass",
    "codim_hn",
    "enumerate_hn_types",
    "enumerate_reductive_classes",
    "codim_deeper_stratum",
    "WeightSystem",
    "BetaIndex",
    "min_norm_point",
    "index_set",
    "stratum_codim",
    "SemistableSeries",
    "hp_ss_series",
    "hp_ss_rank2_closed_form",
    "ss_closed_form",
    "moduli_dimension",
    "stable_coprime_polynomial",
    "StratumRecord",
    "stratum_gl2",
    "stratum_beta1",
    "stratum_t",
    "stratum_beta2",
    "rank2_strata",
    "assemble_stable_hp",
    "stable_rank2_closed_form",
    "deligne_rank2_closed_form",
    "hp_moduli_stable_rank2",
    "hodge_deligne_stable_rank2",
    "moduli_dimension_rank2",
]
