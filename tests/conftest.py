import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Handcrafted datasets (n <= 30) covering ties, zeros and degenerate margins.
# Values are mostly dyadic so weight computations hit exactly representable
# cases; mixed_large adds non-dyadic values on purpose.
CORPUS = [
    ("distinct_small", [3.0, 1.0, 2.0], [0.5, 2.0, 1.0]),
    ("basic_increasing", [1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]),
    (
        "ties_at_threshold",
        [2.0, 2.0, 2.0, 5.0, 7.0, 2.0],
        [1.0, 0.0, 3.0, 2.0, 2.0, 4.0],
    ),
    ("all_x_equal", [5.0] * 6, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    ("zeros_in_y", [1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 1.0, 0.0, 2.0]),
    ("zeros_in_x", [0.0, 0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    (
        "y_equals_x",
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
    ),
    (
        "y_half_x",
        [1.0, 2.0, 4.0, 8.0, 16.0, 3.0, 5.0, 7.0],
        [0.5, 1.0, 2.0, 4.0, 8.0, 1.5, 2.5, 3.5],
    ),
    ("y_above_x", [1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0]),
    (
        "mixed_large",
        [
            0.0, 0.3, 0.3, 1.7, 2.5, 2.5, 2.5, 3.1, 4.75, 4.75,
            5.0, 5.0, 6.25, 7.3, 8.0, 8.0, 9.9, 10.4, 11.0, 12.5,
            12.5, 13.1, 14.8, 15.0, 16.0, 17.3, 18.0, 19.7, 20.0, 21.5,
        ],
        [
            0.7, 0.0, 1.1, 1.7, 0.0, 3.9, 2.5, 2.0, 9.5, 1.2,
            5.0, 0.0, 3.0, 11.1, 4.0, 8.0, 9.9, 3.3, 22.0, 6.25,
            12.5, 0.0, 7.4, 15.0, 8.0, 17.3, 4.5, 19.7, 40.0, 10.75,
        ],
    ),
]


@pytest.fixture(params=CORPUS, ids=[name for name, _, _ in CORPUS])
def corpus_case(request):
    return request.param


def exact_midpoint(x: float) -> str:
    """The exact decimal halfway between the double x and the next one up."""
    with localcontext() as context:
        context.prec = 2000  # a tie between doubles has fewer than 800 digits
        return str((Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2)
