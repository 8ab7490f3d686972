"""Dense complex linear algebra primitives.

Operators are plain 2-D complex128 numpy arrays in row-major layout. The
helpers here pin down the conventions the rest of the package relies on:
descending singular-value order, a deterministic phase gauge for
singular vectors, and reproducible random sampling keyed by explicit
(seed, stream) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute tolerance for validity checks (Hermiticity, unitarity, trace).
VALIDITY_ATOL = 1e-9

# Guard against runaway Kronecker products; everything here is desk scale.
MAX_SIDE = 1 << 16

_SQRT2 = float(np.sqrt(2.0))


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a finite 2-D complex128 array."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; block (i, k) of the result equals a[i, k] * b."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape[0] * b.shape[0] > MAX_SIDE or a.shape[1] * b.shape[1] > MAX_SIDE:
        raise ValueError(
            f"tensor product of shapes {a.shape} and {b.shape} overflows the supported size"
        )
    return np.kron(a, b)


def partial_trace(m, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Reduced operator on one factor of a (dim_a*dim_b)-dimensional operator.

    keep selects the surviving subsystem, "A" or "B". The result carries the
    trace of the input.
    """
    m = as_complex_matrix(m)
    side = dim_a * dim_b
    if m.shape != (side, side):
        raise ValueError(f"operator side {m.shape} does not match dim_a*dim_b = {side}")
    r4 = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("ijkj->ik", r4)
    if keep == "B":
        return np.einsum("ijil->jl", r4)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def commutator(a, b) -> np.ndarray:
    """Lie bracket ab - ba of two square matrices of equal size."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"commutator needs equal square matrices, got {a.shape}, {b.shape}")
    return a @ b - b @ a


def _fix_column_phases(vectors: np.ndarray, partners: np.ndarray) -> None:
    # Gauge choice: rotate each column so its largest-modulus entry is real
    # positive; exact ties resolve to the lowest row index through argmax.
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        idx = int(np.argmax(np.abs(col)))
        mod = abs(col[idx])
        if mod < 1e-300:
            continue
        phase = np.conj(col[idx] / mod)
        vectors[:, k] *= phase
        partners[:, k] *= phase


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact SVD m = u @ diag(s) @ v.conj().T with a deterministic gauge.

    Singular values come back descending; each (u, v) column pair is rotated
    so the largest-modulus entry of the u column is real positive. LAPACK
    convergence failures surface as numpy.linalg.LinAlgError.
    """
    arr = as_complex_matrix(m)
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    v = vh.conj().T.copy()
    u = u.copy()
    _fix_column_phases(u, v)
    return u, s, v


def complete_orthonormal_basis(columns, dim: int) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis of C^dim.

    Candidates are computational basis vectors in index order; each is
    orthogonalized (two Gram-Schmidt passes) against the accepted set and
    kept when a numerically nonzero residual remains. Deterministic.
    """
    cols: list[np.ndarray] = []
    if columns is not None:
        arr = as_complex_matrix(columns)
        if arr.shape[0] != dim:
            raise ValueError(f"columns live in dimension {arr.shape[0]}, expected {dim}")
        cols = [arr[:, k].copy() for k in range(arr.shape[1])]
    if len(cols) > dim:
        raise ValueError(f"{len(cols)} columns cannot be orthonormal in dimension {dim}")
    for e in range(dim):
        if len(cols) == dim:
            break
        cand = np.zeros(dim, dtype=np.complex128)
        cand[e] = 1.0
        for _ in range(2):
            for c in cols:
                cand = cand - c * np.vdot(c, cand)
        nrm = float(np.linalg.norm(cand))
        if nrm > 1e-6:
            cols.append(cand / nrm)
    if len(cols) != dim:
        raise ValueError("input columns are too far from orthonormal to complete")
    return np.column_stack(cols)


@dataclass(eq=False)
class SeededRng:
    """Reproducible random stream identified by (seed, stream_id).

    Identical (seed, stream_id) pairs replay identical sample sequences
    across runs; distinct stream ids give independent streams, one per
    parallel worker.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if int(self.stream_id) < 0:
            raise ValueError("stream_id must be non-negative")
        seq = np.random.SeedSequence(int(self.seed), spawn_key=(int(self.stream_id),))
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def stream(self, stream_id: int) -> "SeededRng":
        """Sibling stream sharing this seed."""
        return SeededRng(self.seed, stream_id)


def haar_random_unitary(d: int, rng: SeededRng) -> np.ndarray:
    """Haar-distributed d x d unitary: complex Ginibre, QR, phase fix."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return unitary_from_ginibre(complex_ginibre(rng.generator, (d, d)))


def complex_ginibre(g: np.random.Generator, shape, count: int | None = None) -> np.ndarray:
    """Complex Ginibre array of the given shape, entries of unit variance.

    All real parts are drawn first, then all imaginary parts; with count, so
    are count arrays stacked on a new leading axis, in one generator call.
    """
    parts = g.standard_normal((2, *shape) if count is None else (count, 2, *shape))
    if count is not None:
        parts = parts.swapaxes(0, 1)
    return (parts[0] + 1j * parts[1]) / _SQRT2


def unitary_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Q of the QR of each matrix on z's last two axes, phase-fixed by diag(R).

    Fed complex Ginibre matrices, this yields Haar unitaries; leading axes
    are batch axes.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mods = np.abs(diag)
    phases = np.where(mods > 0, diag / np.where(mods > 0, mods, 1.0), 1.0)
    return q * phases[..., None, :]


def random_pure_state(d: int, rng: SeededRng) -> np.ndarray:
    """Haar-distributed unit vector in C^d (normalized complex Gaussian)."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    g = rng.generator
    z = g.standard_normal(d) + 1j * g.standard_normal(d)
    return z / np.linalg.norm(z)


def matrix_to_json(m) -> dict:
    """JSON-ready dict {"rows", "cols", "entries"} with row-major [re, im] pairs."""
    arr = as_complex_matrix(m)
    flat = arr.ravel()
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def json_positive_int(obj: dict, key: str) -> int:
    """obj[key] as a positive integer; JSON true/false are not integers here."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"field '{key}' must be a positive integer, got {value!r}")
    return value


def complex_from_json_pairs(pairs: list, what: str) -> np.ndarray:
    """Complex vector from [re, im] pairs; errors name `what` and the index."""
    data = np.empty(len(pairs), dtype=np.complex128)
    for k, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"{what} {k} must be a [re, im] pair")
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair):
            raise ValueError(f"{what} {k} must hold two numbers")
        data[k] = complex(*pair)
    return data


def matrix_from_json(obj) -> np.ndarray:
    """Inverse of matrix_to_json; ValueError messages name the offending field."""
    if not isinstance(obj, dict):
        raise ValueError("matrix value must be a JSON object")
    for key in ("rows", "cols", "entries"):
        if key not in obj:
            raise ValueError(f"matrix object is missing field '{key}'")
    rows = json_positive_int(obj, "rows")
    cols = json_positive_int(obj, "cols")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError(
            f"field 'entries' must list rows*cols = {rows * cols} pairs, got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    data = complex_from_json_pairs(entries, "entry")
    arr = data.reshape(rows, cols)
    if not np.all(np.isfinite(arr)):
        raise ValueError("field 'entries' contains non-finite values")
    return arr
