"""Gog, Magog and GOGAm triangles, alternating sign matrices, the
Schutzenberger involution, and the explicit (n,2) trapezoid bijection."""

from .asm import (
    Asm,
    asm_inversion_number,
    asm_to_gog,
    bottom_row_one_column,
    format_asm,
    gog_to_asm,
    parse_asm,
    validate_asm,
)
from .bijection import (
    BijectionState,
    BijectionStateError,
    InvalidGogamInput,
    Rule,
    StepRecord,
    covering_subtraction_map,
    extract_diagonals,
    forward_step,
    gog_to_gogam_n2,
    gogam_to_gog_n2,
    inverse_step,
    magog_row_statistic,
    statistic_x11,
)
from .enumeration import FamilySpec, Report, asm_number, count, generate, generate_asms, verify
from .schutzenberger import (
    bender_knuth,
    is_gogam,
    schutzenberger,
    schutzenberger_diagonal,
)
from .tableaux import (
    Ssyt,
    complement_reverse,
    reading_word,
    rsk_insertion_tableau,
    schutzenberger_via_words,
    tableau_to_triangle,
    triangle_to_tableau,
)
from .triangles import (
    Family,
    GtTriangle,
    Inversion,
    ShapeError,
    Violation,
    format_triangle,
    inversions,
    is_gog,
    is_gog_trapezoid_n2k,
    is_magog,
    is_magog_trapezoid_n2k,
    is_trapezoid,
    is_valid_gt,
    parse_triangle,
    validate_gt,
)

__all__ = [
    "Asm", "asm_inversion_number", "asm_to_gog", "bottom_row_one_column", "format_asm",
    "gog_to_asm", "parse_asm", "validate_asm",
    "BijectionState", "BijectionStateError", "InvalidGogamInput", "Rule", "StepRecord",
    "covering_subtraction_map", "extract_diagonals", "forward_step", "gog_to_gogam_n2",
    "gogam_to_gog_n2", "inverse_step", "magog_row_statistic", "statistic_x11",
    "FamilySpec", "Report", "asm_number", "count", "generate", "generate_asms",
    "verify",
    "bender_knuth", "is_gogam", "schutzenberger", "schutzenberger_diagonal",
    "Ssyt", "complement_reverse", "reading_word", "rsk_insertion_tableau",
    "schutzenberger_via_words", "tableau_to_triangle", "triangle_to_tableau",
    "Family", "GtTriangle", "Inversion", "ShapeError", "Violation", "format_triangle",
    "inversions", "is_gog", "is_gog_trapezoid_n2k", "is_magog", "is_magog_trapezoid_n2k",
    "is_trapezoid", "is_valid_gt", "parse_triangle", "validate_gt",
]
