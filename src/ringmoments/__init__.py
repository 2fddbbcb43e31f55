"""Exact Haar-unitary moment calculus and spectral-radius experiments for
random matrices with prescribed singular values.

The names here are the exact half, in pure Python.  The sampling half and
its array dependency load only with ``import ringmoments.montecarlo``."""

from .exact_moments import (
    BoundReport,
    CensusReport,
    CountingCheck,
    CrossCheckError,
    composition_census,
    f_i,
    g_i,
    theorem_bound,
    trace_moment_sq,
    trace_moment_uu,
    verify_counting_lemma,
)
from .haar_moments import MomentSpec, entry_moment
from .permutations import (
    Permutation,
    all_permutations,
    enumerate_sk0,
)
from .profiles import SingularProfile
from .weingarten import (
    AltBounds,
    WeingartenValue,
    WgBound,
    monotone_counts,
    wg_alt_bounds,
    wg_bound,
    wg_character_table,
    wg_class_table,
    wg_exact,
    wg_series,
)

__all__ = [
    "AltBounds",
    "BoundReport",
    "CensusReport",
    "CountingCheck",
    "CrossCheckError",
    "MomentSpec",
    "Permutation",
    "SingularProfile",
    "WeingartenValue",
    "WgBound",
    "all_permutations",
    "composition_census",
    "enumerate_sk0",
    "entry_moment",
    "f_i",
    "g_i",
    "monotone_counts",
    "theorem_bound",
    "trace_moment_sq",
    "trace_moment_uu",
    "verify_counting_lemma",
    "wg_alt_bounds",
    "wg_bound",
    "wg_character_table",
    "wg_class_table",
    "wg_exact",
    "wg_series",
]
