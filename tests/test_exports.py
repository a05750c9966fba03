"""The package's public names."""

import splitstat


def test_every_exported_name_resolves():
    missing = [name for name in splitstat.__all__ if not hasattr(splitstat, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from splitstat import *", namespace)
    assert set(splitstat.__all__) <= set(namespace)


# The public surface, sorted.  Adding or dropping an export changes this
# list, so an API change is always visible in a test.
EXPORTS = [
    "BudgetExceeded", "CharacterPolynomial", "ClassFunction",
    "ConsistencyError", "DEFAULT_BUDGET", "DegreeMismatch", "ExpectationResult",
    "FqField", "FqPoly", "InvalidCharacteristic", "NORM_Q_POWER", "NORM_SF_COUNT",
    "Partition", "Q_VAR", "SignedPolynomial", "SplitstatError", "StableLimit",
    "UPoly", "U_VAR", "UnknownStatistic", "VIA_MEASURE", "VIA_SERIES",
    "builtin", "builtin_names", "builtin_polynomial", "census", "decompose",
    "eval_q1", "even_type", "expected", "expected_sf", "format_rational",
    "indicator", "inner", "irr_dim", "irreducible_character", "irreducibles",
    "make_field", "measure_rows", "necklace", "parse_character_polynomial",
    "parse_rational", "partitions_of", "phi_table", "psi_table", "quadratic_excess",
    "sf_splitting_measure", "sgn", "splitting_measure", "stable_limit",
    "type_counts",
]


def test_the_public_surface_is_pinned():
    assert EXPORTS == sorted(EXPORTS)
    assert splitstat.__all__ == EXPORTS
