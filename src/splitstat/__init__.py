"""Exact factorization statistics for monic polynomials over finite fields.

The library computes expected values of factorization statistics from
splitting measures, extracts the symmetric-group characters behind them,
and checks the values against a brute-force finite-field census.  All
arithmetic is rational; nothing is floating point.
"""

from .errors import (
    BudgetExceeded,
    ConsistencyError,
    DegreeMismatch,
    InvalidCharacteristic,
    SplitstatError,
    UnknownStatistic,
)
from .exact import (
    Q_VAR,
    U_VAR,
    UPoly,
    format_rational,
    parse_rational,
)
from .expect import (
    NORM_Q_POWER,
    NORM_SF_COUNT,
    VIA_MEASURE,
    VIA_SERIES,
    ExpectationResult,
    StableLimit,
    eval_q1,
    expected,
    expected_sf,
    stable_limit,
)
from .gf import (
    DEFAULT_BUDGET,
    FqField,
    FqPoly,
    census,
    irreducibles,
    make_field,
    type_counts,
)
from .lie_chars import phi_table, psi_table
from .measures import measure_rows, necklace, sf_splitting_measure, splitting_measure
from .partitions import Partition, partitions_of
from .sym_chars import (
    CharacterPolynomial,
    ClassFunction,
    SignedPolynomial,
    builtin,
    builtin_names,
    builtin_polynomial,
    decompose,
    even_type,
    indicator,
    inner,
    irr_dim,
    irreducible_character,
    parse_character_polynomial,
    quadratic_excess,
    sgn,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CharacterPolynomial",
    "ClassFunction",
    "ConsistencyError",
    "DEFAULT_BUDGET",
    "DegreeMismatch",
    "ExpectationResult",
    "FqField",
    "FqPoly",
    "InvalidCharacteristic",
    "NORM_Q_POWER",
    "NORM_SF_COUNT",
    "Partition",
    "Q_VAR",
    "SignedPolynomial",
    "SplitstatError",
    "StableLimit",
    "UPoly",
    "U_VAR",
    "UnknownStatistic",
    "VIA_MEASURE",
    "VIA_SERIES",
    "builtin",
    "builtin_names",
    "builtin_polynomial",
    "census",
    "decompose",
    "eval_q1",
    "even_type",
    "expected",
    "expected_sf",
    "format_rational",
    "indicator",
    "inner",
    "irr_dim",
    "irreducible_character",
    "irreducibles",
    "make_field",
    "measure_rows",
    "necklace",
    "parse_character_polynomial",
    "parse_rational",
    "partitions_of",
    "phi_table",
    "psi_table",
    "quadratic_excess",
    "sf_splitting_measure",
    "sgn",
    "splitting_measure",
    "stable_limit",
    "type_counts",
]
