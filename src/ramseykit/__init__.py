"""Desk-scale search and verification toolkit for Ramsey-type quantities.

Generates extremal edge colorings of complete graphs, detects monochromatic
and rainbow target patterns, evaluates closed-form Ramsey and Gallai-Ramsey
values, and confirms the formulas against exhaustive or family-restricted
search at small sizes.
"""

from .coloring import (
    ColorClass,
    EdgeColoring,
    dumps_coloring,
    loads_coloring,
    read_coloring_file,
    write_coloring_file,
)
from .errors import (
    CapabilityError,
    DescriptorError,
    DomainError,
    ParseError,
    RamseykitError,
)
from .patterns import (
    P4_PLUS,
    CompleteGraph,
    Embedding,
    Explicit,
    ForestWitness,
    Kipas,
    LinearForestExact,
    LinearForestMin,
    Path,
    PatternSpec,
    Star,
    format_pattern,
    has_mono_pattern,
    has_rainbow,
    longest_mono_path,
    max_linear_forest,
    parse_pattern,
    verify_embedding,
    verify_forest_witness,
)
from .constructions import (
    FamilyDescriptor,
    build_family,
    g2_coloring,
    g3_coloring,
    witness_b3_kipas,
    witness_bk_path,
    witness_kipas_linear,
    witness_small_kipas,
    witness_t_path,
)
from .formulas import UNBOUNDED, ValueOrInterval
from .search import (
    CheckReport,
    SearchReport,
    brute_force_ramsey,
    compute_bk,
    compute_t,
    gr_desk_verify,
    universal_check,
)
from .structure import (
    classify_structure,
    is_member,
    multipartite_ham,
    star_forest_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
