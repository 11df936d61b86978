"""Dense block storage addressed by 1-based block indices.

Block vectors are stored as complex arrays of shape (n, d, d): n stacked
d x d blocks (right-hand sides and solutions Y, Z carry d columns per
block, matching the d x d block convention of the solvers). Block
matrices wrap a dense (d n) x (d n) array.
"""

from dataclasses import dataclass

import numpy as np


def as_block_vector(y, d):
    """Coerce `y` to a (n, d, d) complex block stack."""
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim == 3 and y.shape[1] == d and y.shape[2] == d:
        return y
    if y.ndim == 1 and d == 1:
        return y.reshape(-1, 1, 1)
    if y.ndim == 2 and y.shape[1] == d and d == 1:
        return y.reshape(-1, 1, 1)
    raise ValueError(f"cannot interpret array of shape {y.shape} as "
                     f"(n, {d}, {d}) block vector")


@dataclass
class BlockMatrix:
    """Dense complex (d n) x (d n) matrix with 1-based block addressing."""

    n: int
    d: int
    data: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        expect = (self.n * self.d, self.n * self.d)
        if self.data.shape != expect:
            raise ValueError(f"data shape {self.data.shape} != {expect}")

    def block(self, s, t):
        """(s, t) block, 1-based, as a d x d array."""
        if not (1 <= s <= self.n and 1 <= t <= self.n):
            raise IndexError("block index out of range")
        d = self.d
        return self.data[(s - 1) * d:s * d, (t - 1) * d:t * d]

    def check_hermitian(self, tol=1e-13):
        dev = np.abs(self.data - self.data.conj().T).max()
        return dev <= tol * max(1.0, np.abs(self.data).max())


def upper_block_toeplitz(coeffs, n, d):
    """Upper-triangular block Toeplitz matrix with (s, t) block
    coeffs[t - s] for t >= s (zero below the diagonal)."""
    data = np.zeros((n * d, n * d), dtype=np.complex128)
    for s in range(n):
        for t in range(s, n):
            data[s * d:(s + 1) * d, t * d:(t + 1) * d] = coeffs[t - s]
    return BlockMatrix(n=n, d=d, data=data)


def lower_block_toeplitz(coeffs, n, d):
    """Lower-triangular block Toeplitz matrix with (s, t) block
    coeffs[s - t] for s >= t."""
    data = np.zeros((n * d, n * d), dtype=np.complex128)
    for s in range(n):
        for t in range(s + 1):
            data[s * d:(s + 1) * d, t * d:(t + 1) * d] = coeffs[s - t]
    return BlockMatrix(n=n, d=d, data=data)


def gram(a):
    """A* A for a BlockMatrix, returned as a BlockMatrix."""
    return BlockMatrix(n=a.n, d=a.d, data=a.data.conj().T @ a.data,
                       hermitian=True)
