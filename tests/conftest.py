"""Shared fixtures."""

import pytest

from splitstat import cli, measures, sym_chars
from splitstat.partitions import partition_count_exceeds


@pytest.fixture
def partitions_of_refused_past_the_cap(monkeypatch):
    """Make `partitions_of` raise, in every module that calls it, for a d
    with more than PARTITION_BUDGET partitions: a refusal that regresses
    into enumerating such a d (p(10**9) never ends) fails instead of hanging."""
    real = measures.partitions_of

    def guarded(d):
        if partition_count_exceeds(d, measures.PARTITION_BUDGET):
            raise AssertionError(f"partitions_of({d}) past the partition cap")
        return real(d)

    for module in (cli, measures, sym_chars):
        monkeypatch.setattr(module, "partitions_of", guarded)
