"""Maximally nonassociative quasigroups over finite fields.

A quasigroup of order n has at least n associative triples; this package
builds tables meeting that bound exactly.  The construction picks two slopes
a, b in GF(q) and multiplies by x * y = x + a(y - x) or x + b(y - x)
according to whether y - x is a square.  Around the construction sit exact
certification (cubic and orbit-reduced associativity counts), a character-sum
census with its square-root floor, the discriminant survey guarding it, and
a planner deciding which orders are attainable as products of certified
blocks.
"""

from .fields import (
    CharacteristicError,
    Field,
    InternalCheckError,
    Parity,
    cached_field,
    field_for_order,
    odd_prime_powers,
)
from .quasigroup import (
    DEFAULT_TABLE_CAP,
    AssocCount,
    OpTable,
    count_associative_naive,
    direct_product,
    dump_json,
    dump_text,
    is_idempotent,
    is_latin,
    load_table,
    make_table,
    parse_json,
    parse_text,
    save_table,
)
from .construct import (
    CaseReport,
    ConditionSet,
    WitnessRecord,
    append_witness,
    build_table,
    count_associative_orbit,
    entry,
    find_witness,
    is_automorphism,
    load_cache,
    satisfies_conditions,
    search_general,
    search_theorem,
    theorem_conditions,
    verify_case_tables,
)
from .intpoly import (
    DiscriminantReport,
    discriminant,
    discriminant_reports,
    exceptional_primes,
    factor,
    is_prime,
    prime_support,
    resultant,
)
from .weil import (
    WeilReport,
    census_report,
    char_sum,
    min_order_with_margin,
    threshold,
    weil_constant,
    weil_spot_check,
)
from .existence import (
    Block,
    Decision,
    REGISTRY_NOT_EXIST,
    Status,
    build_plan,
    decide,
    materialize,
    single_block_route,
)

__version__ = "0.1.0"

__all__ = [
    "AssocCount",
    "Block",
    "CaseReport",
    "CharacteristicError",
    "ConditionSet",
    "Decision",
    "DEFAULT_TABLE_CAP",
    "DiscriminantReport",
    "Field",
    "InternalCheckError",
    "OpTable",
    "Parity",
    "REGISTRY_NOT_EXIST",
    "Status",
    "WeilReport",
    "WitnessRecord",
    "append_witness",
    "build_plan",
    "build_table",
    "cached_field",
    "census_report",
    "char_sum",
    "count_associative_naive",
    "count_associative_orbit",
    "decide",
    "direct_product",
    "discriminant",
    "discriminant_reports",
    "dump_json",
    "dump_text",
    "entry",
    "exceptional_primes",
    "factor",
    "field_for_order",
    "find_witness",
    "is_automorphism",
    "is_idempotent",
    "is_latin",
    "is_prime",
    "load_cache",
    "load_table",
    "make_table",
    "materialize",
    "min_order_with_margin",
    "odd_prime_powers",
    "parse_json",
    "parse_text",
    "prime_support",
    "resultant",
    "satisfies_conditions",
    "save_table",
    "search_general",
    "search_theorem",
    "single_block_route",
    "theorem_conditions",
    "threshold",
    "verify_case_tables",
    "weil_constant",
    "weil_spot_check",
]
