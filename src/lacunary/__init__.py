"""Desk-scale toolkit for lacunary series in base-b number systems.

Exact evaluation of series sum a(n) / b**(i * n**j) over symbolic index
sets, the congruence constructions that force long zero runs in their digit
expansions, decision procedures and explicit certificates for rational
dependence between such series, and empirical integer-relation detection
over the resulting constants.
"""

__version__ = "0.1.0"

from .arith import (
    BudgetExceeded,
    Factorization,
    PellSolution,
    SquareD,
    crt_solve,
    exponent_images,
    factor,
    int_nth_root,
    is_exponent_image,
    is_prime,
    pell_fundamental,
)
from .dependence import (
    DependencyCertificate,
    EquationSolution,
    FamilyIndex,
    NotApplicable,
    PowerCollision,
    build_counterexample,
    collision_witness,
    enumerate_equation_solutions,
    find_power_collisions,
    independence_conditions,
    square_exponent_pairs,
)
from .forge import (
    CongruenceSystem,
    ExclusionReport,
    ForgeCertificate,
    PrimeWitness,
    build_certificate,
    build_congruence_system,
    find_prime,
    find_witnesses,
    hensel_step,
    verify_exclusions,
)
from .relations import (
    IntegerRelation,
    PrecisionTooLow,
    RelationQuery,
    find_relation,
    lll_reduce,
    search_relations,
    verify_relation,
)
from .series import (
    CoeffFn,
    FixedPointValue,
    FormDigits,
    LinearFormSpec,
    SeriesSpec,
    coefficient_at,
    eval_linear_form,
    eval_series,
    exclusion_window_check,
    form_digits,
    gap_scan,
    render_digits,
)
from .sets import (
    ExponentSet,
    explicit,
    geometric,
    naturals,
    pell_x,
    pell_y,
    primes,
    primes_in_ap,
    set_contains,
    set_enumerate,
    squarefree,
)
