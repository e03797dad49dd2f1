"""Exact computations around the hive model for GL(n) tensor products:
Littlewood-Richardson coefficients, Hilbert bases of the hive cones,
Hilbert-Poincare series, and symbolic highest weight vectors for n <= 4."""

from .cone import (ConePresentation, all_decompositions, decompose,
                   hilbert_basis, hives_up_to_degree, presentation)
from .counting import (enumerate_hives, hp_series_closed_form,
                       hp_series_enumerated, hp_series_reference,
                       lr_coefficient, lr_via_schur, lr_via_tableaux, md_sum)
from .hive import Boundary, Hive, InvalidHiveError, MalformedArrayError
from .polynomial import ColumnTableau, Polynomial, Weight, minor, raising_derivation
from .shapes import is_dominant, partitions_of
from .tableau import LRTableau, enumerate_tableaux, hive_to_tableau, tableau_to_hive
from .tensor_algebra import (GeneratorTable, HighestWeightVector,
                             build_generators, highest_weight_vector, hwv_basis)

__version__ = "0.1.0"

__all__ = [
    "Boundary", "ColumnTableau", "ConePresentation", "GeneratorTable",
    "HighestWeightVector", "Hive", "InvalidHiveError", "LRTableau",
    "MalformedArrayError", "Polynomial", "Weight", "all_decompositions",
    "build_generators", "decompose", "enumerate_hives", "enumerate_tableaux",
    "hilbert_basis", "highest_weight_vector", "hive_to_tableau",
    "hives_up_to_degree", "hp_series_closed_form", "hp_series_enumerated",
    "hp_series_reference", "hwv_basis", "is_dominant", "lr_coefficient",
    "lr_via_schur", "lr_via_tableaux", "md_sum", "minor", "partitions_of",
    "presentation", "raising_derivation", "tableau_to_hive",
]
