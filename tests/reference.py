"""Independent reference routes that the tests check the package against."""

from patdual.algebra import SingularMatrixError


def gaussian_solve(matrix, rhs):
    """Solve A x = b over a field (Fraction or RationalFunction entries) by textbook Gaussian elimination.

    The pivot is the first nonzero entry of its column; SingularMatrixError names the first column that has none.
    """
    m = len(matrix)
    a = [[*row, b] for row, b in zip(matrix, rhs)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(col)
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, m):
            if a[r][col]:
                factor = a[r][col] / a[col][col]
                a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    x = [None] * m
    for i in range(m - 1, -1, -1):
        acc = a[i][m]
        for j in range(i + 1, m):
            acc = acc - a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x
