"""Brute-force oracle for small pure-integer MILPs.

``random_milp`` draws ``min c @ x`` subject to ``A x <= b`` and
``0 <= x <= ub`` over the integers; ``brute_force`` enumerates the
whole grid, so any exact solver must reproduce its verdict and optimum.
"""

import itertools

from hypothesis import strategies as st


def brute_force(c, rows, ub):
    """Enumerate the integer grid; return the best objective or None."""
    best = None
    ranges = [range(0, u + 1) for u in ub]
    for point in itertools.product(*ranges):
        if all(
            sum(a * v for a, v in zip(row, point)) <= b for row, b in rows
        ):
            value = sum(ci * v for ci, v in zip(c, point))
            if best is None or value < best:
                best = value
    return best


@st.composite
def random_milp(draw):
    num_vars = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 4))
    ints = st.integers(-5, 5)
    c = [draw(ints) for _ in range(num_vars)]
    rows = []
    for _ in range(num_rows):
        row = [draw(ints) for _ in range(num_vars)]
        rhs = draw(st.integers(-8, 15))
        rows.append((row, rhs))
    ub = [draw(st.integers(0, 4)) for _ in range(num_vars)]
    return c, rows, ub
