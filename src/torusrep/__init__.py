"""Exact integral TQFT representations of the one-holed torus mapping class
group: cyclotomic integer arithmetic, twist matrices in the orthogonal
basis, h-adic truncations, and the mod-p polynomial model."""

from .cyclotomic import (
    CycNum,
    HDigits,
    ModH,
    PrimeContext,
    Truncation,
    exact_div,
    h_valuation,
    is_associate,
    reduce_mod_h,
    truncate,
)
from .qint import QScalars, scalars
from .skein_poly import (
    C_closed,
    C_recursive,
    QPoly,
    expand_in_Qc,
    multiply_mod,
    omega_plus_coeffs,
    q_poly_monomial,
    verify_product_expansion,
)
from .rep import (
    RepMatrix,
    a_entry,
    b_entry,
    eval_word,
    invert,
    norm_Q,
    norm_Qprime,
    ratio_R,
    t_matrix,
    tstar_matrix,
    tstar_oracle,
    verify_relations,
)
from .fp_rep import (
    irreducibility_check,
    phi_matrix,
    poly_action,
    rho0_matrices,
    u_lemma_check,
    verify_intertwine,
)
from .identities import krattenthaler_sum, verify_identity_grid

__all__ = [
    "CycNum", "HDigits", "ModH", "PrimeContext", "Truncation", "exact_div",
    "h_valuation", "is_associate", "reduce_mod_h", "truncate",
    "QScalars", "scalars",
    "C_closed", "C_recursive", "QPoly", "expand_in_Qc", "multiply_mod",
    "omega_plus_coeffs", "q_poly_monomial", "verify_product_expansion",
    "RepMatrix", "a_entry", "b_entry", "eval_word",
    "invert", "norm_Q", "norm_Qprime", "ratio_R", "t_matrix",
    "tstar_matrix", "tstar_oracle", "verify_relations",
    "irreducibility_check", "phi_matrix", "poly_action",
    "rho0_matrices", "u_lemma_check", "verify_intertwine",
    "krattenthaler_sum", "verify_identity_grid",
]

__version__ = "0.1.0"
