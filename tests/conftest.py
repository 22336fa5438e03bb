"""Session-scoped pipeline artifacts shared by the module tests.

The planted corpora are small enough that fitting the topic model and
running a full retrieval sweep once per session keeps the suite fast while
letting several test modules exercise realistic, internally consistent
objects instead of hand-built stubs.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

import planted
from dictsieve import (
    build_cooc,
    extract_dictionary_tfidf,
    extract_dictionary_tm,
    filter_cooc,
    fit_lda,
    generate_sweep,
    term_stats,
)

# Under CI (the CI environment variable is set) the property tests draw the
# same examples on every run, with no example database carried between
# runs; local runs keep hypothesis's defaults.
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def planted_reference():
    return planted.build_reference()


@pytest.fixture(scope="session")
def planted_generic():
    return planted.build_generic()


@pytest.fixture(scope="session")
def planted_target():
    return planted.build_target()


@pytest.fixture(scope="session")
def planted_model(planted_reference):
    return fit_lda(planted_reference, 2, alpha=0.5, beta=0.01, iterations=120, seed=7)


@pytest.fixture(scope="session")
def planted_dictionaries(planted_reference, planted_model):
    stats = term_stats(planted_reference)
    d_tm = extract_dictionary_tm(planted_model, stats, 16)
    d_tfidf = extract_dictionary_tfidf(planted_reference, 16)
    return d_tm, d_tfidf


@pytest.fixture(scope="session")
def planted_filtered(planted_reference, planted_generic, planted_dictionaries):
    d_tm, d_tfidf = planted_dictionaries
    cf_tm = filter_cooc(build_cooc(planted_reference, d_tm), build_cooc(planted_generic, d_tm))
    cf_tfidf = filter_cooc(
        build_cooc(planted_reference, d_tfidf), build_cooc(planted_generic, d_tfidf)
    )
    return cf_tm, cf_tfidf


@pytest.fixture(scope="session")
def planted_sweep(planted_target, planted_dictionaries, planted_filtered):
    d_tm, d_tfidf = planted_dictionaries
    cf_tm, cf_tfidf = planted_filtered
    return generate_sweep(planted_target, d_tm, d_tfidf, cf_tm, cf_tfidf, k=50)
