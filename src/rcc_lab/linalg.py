"""Dense complex linear algebra primitives.

Operators are plain 2-D complex128 numpy arrays in row-major layout. The
helpers here pin down the conventions the rest of the package relies on:
validity tolerances, orthonormal completion, and reproducible random
sampling keyed by explicit (seed, stream) pairs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

# Absolute tolerance for validity checks (Hermiticity, unitarity, trace).
VALIDITY_ATOL = 1e-9

_SQRT2 = float(np.sqrt(2.0))


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """arr, after a ValueError naming what if any entry is NaN or infinite."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} holds a non-finite entry")
    return arr


def stack_sum(x: np.ndarray, axes: int = 1) -> np.ndarray:
    """np.add.reduce of x over its last axis (axes=1) or last two (axes=2), bit for bit but for NaN payloads.

    numpy adds fewer than 8 real (4 complex) terms one by one from +0, in one inner loop per sum: in index order,
    and over two axes row by row where the rows follow each other in memory. Here each term is one vector add over
    the stack. Other layouts, and longer sums, whose order depends on length and layout, are numpy's reduction.
    """
    n = x.shape[-1] * (x.shape[-2] if axes == 2 else 1)
    rows = axes == 1 or x.strides[-2] == x.shape[-1] * x.strides[-1]
    if not (0 < n < (4 if x.dtype.kind == "c" else 8) and rows):
        return np.add.reduce(x, axis=(-2, -1)[-axes:])
    if axes == 2:
        x = x.reshape(x.shape[:-2] + (n,))
    total = x[..., 0] + 0.0
    for k in range(1, n):
        total = total + x[..., k]  # += costs about 1 us more per term on a small stack
    return total


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a finite 2-D complex128 array."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return require_finite(arr, "matrix")


def partial_trace(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Reduced operator on A of a (dim_a*dim_b)-dimensional operator on A (x) B.

    The result carries the trace of the input.
    """
    m = as_complex_matrix(m)
    side = dim_a * dim_b
    if m.shape != (side, side):
        raise ValueError(f"operator side {m.shape} does not match dim_a*dim_b = {side}")
    return np.einsum("ijkj->ik", m.reshape(dim_a, dim_b, dim_a, dim_b))


def require_orthonormal_columns(cols: np.ndarray) -> None:
    """Raise ValueError unless the columns of cols (..., n, k) are orthonormal within VALIDITY_ATOL."""
    with np.errstate(over="ignore", invalid="ignore"):
        dev = float(np.max(np.abs(cols.conj().swapaxes(-1, -2) @ cols - np.eye(cols.shape[-1]))))
    if not dev <= VALIDITY_ATOL:  # an overflowing Gram matrix gives inf or NaN, and fails
        raise ValueError(f"basis columns deviate from orthonormal by {dev:.3e}")


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


# NumPy's SeedSequence (NEP 19): a pool of four uint32 words, its hash and mix
# constants, and the 128-bit multiplier of the PCG64 it seeds.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    # The hash constant before each of `calls` successive hashmix calls, then after the last.
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    # Row j is one hashmix call with the j-th of len(consts) - 1 successive
    # constants; uint32 arithmetic wraps as the C code does.
    h = (values ^ consts[:-1, None]) * consts[1:, None]
    return h ^ (h >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def stream_seed_words(seed: int, stream_ids) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64) for each i.

    Row k belongs to the k-th stream id. Ids are split into little-endian
    uint32 words as SeedSequence splits them (ids from 2**32 on take two), and
    each id length is one vectorised pass over the block.
    """
    seed = int(seed)
    ids = [int(i) for i in stream_ids]
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if min(ids, default=0) < 0:
        raise ValueError("stream_id must be non-negative")
    top = max(ids, default=0)
    key = np.array(ids, dtype=np.uint64 if top < 2**64 else object)
    shifted = [key >> (32 * k) for k in range(max(1, -(-top.bit_length() // 32)))]
    id_words = [(part & _MASK32).astype(np.uint32) for part in shifted]
    lengths = np.ones(len(ids), dtype=np.int64)
    for part in shifted[1:]:
        lengths += part != 0
    # One hashmix call per pool word, one per ordered pair of distinct pool
    # words, then one per (id word, pool word).
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * len(id_words))

    # With a spawn key the seed's words are zero-padded to the pool size, so
    # the pool before the id words depends on the seed alone.
    run = [(seed >> 32 * k) & _MASK32 for k in range(_POOL_SIZE)]
    pool = _hashmix(np.array(run, dtype=np.uint32)[:, None], consts[: _POOL_SIZE + 1])
    at = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[at : at + _POOL_SIZE]))
        at += _POOL_SIZE - 1

    out = np.empty((len(ids), 4), dtype=np.uint64)
    for length in range(1, len(id_words) + 1):
        rows = np.flatnonzero(lengths == length)
        mixed = pool
        for k in range(length):
            start = at + _POOL_SIZE * k
            mixed = _mix(mixed, _hashmix(id_words[k][rows], consts[start : start + _POOL_SIZE + 1]))
        state = _hashmix(np.tile(mixed, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 8)).astype(np.uint64)
        out[rows] = (state[0::2] | (state[1::2] << np.uint64(32))).T
    return out


def stream_generators(seed: int, stream_ids) -> Iterator[np.random.Generator]:
    """Iterator over Generators at the start of SeededRng(seed, i)'s stream, i in stream_ids.

    All stream seeds come from one stream_seed_words pass; each step then sets
    the state of one reused PCG64 (whose buffered uint32 half is cleared), so
    the yielded Generator is the same object every time and is valid only
    until the next step. Arguments are checked, and the seeds computed, here.
    """
    words = stream_seed_words(seed, stream_ids).tolist()
    bitgen = np.random.PCG64(0)
    return _reseeded(bitgen, np.random.Generator(bitgen), words)


def _reseeded(bitgen: np.random.PCG64, g: np.random.Generator, words: list) -> Iterator[np.random.Generator]:
    state = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}
    for state_hi, state_lo, seq_hi, seq_lo in words:
        # PCG64's srandom: inc = 2 seq + 1, then two LCG steps around adding the seed.
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state["state"] = {"state": ((state_hi << 64 | state_lo) + inc) * _PCG64_MULT + inc & _MASK128, "inc": inc}
        bitgen.state = state
        yield g


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
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        # A float64 view lists the parts as plain floats, with no numpy scalar per entry.
        "entries": arr.ravel().view(np.float64).reshape(-1, 2).tolist(),
    }


def json_positive_int(obj: dict, key: str) -> int:
    """obj[key] as a positive integer; JSON true/false are not integers here."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"field '{key}' must be a positive integer, got {value!r}")
    return value


def complex_from_json_pairs(pairs: list, what: str) -> np.ndarray:
    """Complex vector from [re, im] pairs; errors name `what` and the index."""
    values = []
    for k, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"{what} {k} must be a [re, im] pair")
        re, im = pair
        if not (isinstance(re, (int, float)) and isinstance(im, (int, float))) or bool in (type(re), type(im)):
            raise ValueError(f"{what} {k} must hold two numbers")
        try:
            values.append(complex(re, im))
        except OverflowError:
            raise ValueError(f"{what} {k} holds a number too large for a float") from None
    return np.array(values, dtype=np.complex128)


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
    return require_finite(complex_from_json_pairs(entries, "entry").reshape(rows, cols), "field 'entries'")
