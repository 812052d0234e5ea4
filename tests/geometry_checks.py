"""Structural checks of a connection and a curvature tensor, for the tests.

The package computes the Levi-Civita connection and its curvature but
never checks them against their defining properties; the tests do, with
these helpers, through the public ``gamma``, ``operator`` and
``components`` views.
"""

from g2kit.linalg import DIM


def is_metric(conn) -> bool:
    """Every nabla_{e_i} is skew, so the connection preserves the metric."""
    return all(conn.operator(i).is_skew() for i in range(DIM))


def torsion_defect(conn, mla) -> tuple[int, int] | None:
    """The first (i, j) with nabla_{e_i} e_j - nabla_{e_j} e_i != [e_i, e_j],
    or None when the connection is torsion free."""
    for i in range(DIM):
        for j in range(DIM):
            if conn.gamma[i][j] - conn.gamma[j][i] != mla.brackets[i][j]:
                return (i, j)
    return None


def symmetry_defects(r) -> list[str]:
    """The failed curvature symmetries at the first index tuple with one:
    antisymmetry in (i, j) and in (k, l), pair symmetry and the first
    Bianchi identity; empty when all hold."""
    c = r.components
    out = []
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                for l in range(DIM):
                    v = c[i][j][k][l]
                    if v != -c[j][i][k][l]:
                        out.append(f"antisymmetry in (i,j) fails at {(i, j, k, l)}")
                    if v != -c[i][j][l][k]:
                        out.append(f"antisymmetry in (k,l) fails at {(i, j, k, l)}")
                    if v != c[k][l][i][j]:
                        out.append(f"pair symmetry fails at {(i, j, k, l)}")
                    if v + c[j][k][i][l] + c[k][i][j][l] != 0:
                        out.append(f"first Bianchi fails at {(i, j, k, l)}")
                    if out:
                        return out
    return out
