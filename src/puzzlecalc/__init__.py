"""
Exact structure constants for Grassmannian Schubert calculus, in four
theories (ordinary and torus-equivariant cohomology and K-theory), computed
by degenerating Richardson varieties one puzzle piece at a time.
"""

from .board import (Puzzle, PuzzlePath, Step, ascii_render, final_path_word,
                    initial_path, is_valid, next_fill_position, svg_render,
                    validate_path)
from .filling import (Theory, ascii_puzzles, branch_weight, enumerate_puzzles, graph,
                      legal_branches, reachable_from, runs, structure_constants, table,
                      trace, trace_rows)
from .intervalrank import (DotSet, IntervalRankMatrix, covers, envelope, envelope_codim,
                           essential_conditions, essential_set, fixed_point_in,
                           format_dots, irm_min, matching_exists, parse_dots,
                           rank_from_dots, rank_of_matrix)
from .oracle import Report, lr_oracle, verify_suite
from .pinkdots import path_codim, path_dots, path_to_rank
from .poly import LPoly, Poly, eval_at_one, lowest_form, render, y_to_zero
from .words import Word, all_words, inversions, parse_word, word_to_partition

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
