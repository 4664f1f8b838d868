"""Exact interval pseudo MV-algebras over lattice-ordered groups.

Construct Gamma(G, u) intervals over a closed catalog of l-groups,
decompose lexicographic algebras into slices with cyclic families,
build and verify the representation map into Gamma(H lex G, (u, b)),
and cross-check everything against an exhaustive finite-table oracle.
"""

from .algebra import (
    CrossAlgebraError,
    IntervalError,
    PmvAlgebra,
    PmvElem,
    iterate,
    left_residual,
    oplus_via_pea,
    ord_of,
    right_residual,
)
from .axioms import axiom_report, partial_sum_report, pea_equivalence_report
from .finite import (
    FiniteMv,
    brute_isomorphic,
    check_rdp2,
    enumerate_ideals,
    extremal_states,
    generated_normal_ideal,
    has_complement,
    is_lexicographic_ideal,
    is_local,
    is_retractive,
    make_chain,
    make_product,
    make_subalgebra,
    quotient,
    radical_suite,
)
from .groups import (
    AFF,
    Aff,
    GroupHom,
    GroupSpec,
    O,
    Q,
    UnitalGroup,
    Z,
    lex,
)
from .reports import Report, canonical_json
from .witnesses import (
    LexAlgebra,
    Mapping,
    PerfectWitness,
    build_phi,
    canonical_witness,
    check_cyclic,
    check_decomposition,
    classify,
    extract_morphism,
    lift_morphism,
    midpoint_certificate,
    mutation_suite,
    quotient_to_base,
    state_on_lex,
    unique_state,
    verify_hom,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
