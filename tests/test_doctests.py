"""Run the library's doctest examples (they double as API documentation)."""

import doctest

import pytest

import repro
import repro.analysis.stats
import repro.analysis.tables
import repro.common.format
import repro.core.clustering
import repro.core.dendro_repair
import repro.core.dendrogram
import repro.core.sharded
import repro.stores.parsers
import repro.stores.parsers.common
import repro.stores.registry

_MODULES = [
    repro,
    repro.analysis.stats,
    repro.analysis.tables,
    repro.common.format,
    repro.core.clustering,
    repro.core.dendro_repair,
    repro.core.dendrogram,
    repro.core.sharded,
    repro.stores.parsers,
    repro.stores.parsers.common,
    repro.stores.registry,
]


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0, f"{module.__name__} has no doctest examples"
