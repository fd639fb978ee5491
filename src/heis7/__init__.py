"""Exact computer algebra for level-7 Heisenberg symmetry: cyclotomic
arithmetic, character tables, Groebner bases with graded resolutions, and the
explicit rational family of invariant abelian surface ideals with its Klein
quartic models, all behind a batch verification command line."""

__version__ = "0.1.0"

from .field import (  # noqa: F401
    Cyc7,
    FieldElem,
    QQ,
    fp,
    gauss_sum,
    parse_cyc,
    parse_field,
    render_cyc,
    render_field,
    zeta,
)
from .poly import (  # noqa: F401
    DiffOp,
    Poly,
    REG_T,
    REG_TU,
    REG_U,
    REG_V,
    REG_X,
    REG_Y,
    VarRegistry,
    kernel_of_operators,
    parse_poly,
    render_poly,
)
from .formmat import FormMatrix, det_form, pfaffian, pfaffian_vector  # noqa: F401
from .groebner import GradedIdeal, HilbertData, buchberger  # noqa: F401
from .resolution import (  # noqa: F401
    BettiTable,
    NotHilbertBurch,
    free_resolution,
    hilbert_burch,
    intersect,
)
