"""Dense complex linear algebra primitives.

Operators are plain 2-D complex128 numpy arrays in row-major layout. The
helpers here pin down the conventions the rest of the package relies on:
validity tolerances, orthonormal completion, and reproducible random
sampling keyed by explicit (seed, stream) pairs.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

import numpy as np

# Absolute tolerance for validity checks (Hermiticity, unitarity, trace).
VALIDITY_ATOL = 1e-9

# Largest entry modulus of a physical input: a valid one is within 1 + d * VALIDITY_ATOL, and products stay finite.
ENTRY_BOUND = 2.0

_SQRT2 = float(np.sqrt(2.0))


def converted(name: str, convert, value, **kwargs):
    """convert(value, **kwargs); a value it cannot convert is a ValueError that names the argument name."""
    try:
        return convert(value, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be numeric: {exc}") from exc


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """arr, after a ValueError naming what if any entry is NaN or infinite."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} holds a non-finite entry")
    return arr


def require_bounded(arr: np.ndarray, what: str) -> np.ndarray:
    """arr, after require_finite's ValueError, or a ValueError naming what if an entry's modulus exceeds ENTRY_BOUND."""
    if not (top := np.abs(arr).max(initial=0.0)) <= ENTRY_BOUND:  # NaN fails too
        require_finite(arr, what)
        raise ValueError(f"{what} holds an entry of modulus {top:.3e}, above {ENTRY_BOUND}")
    return arr


@cache
def frozen_eye(d: int, dtype=float) -> np.ndarray:
    """np.eye(d, dtype=dtype), built once and read-only."""
    (eye := np.eye(d, dtype=dtype)).setflags(write=False)
    return eye


def stack_sum(x: np.ndarray) -> np.ndarray:
    """np.add.reduce of x over its last axis, bit for bit but for NaN payloads.

    numpy adds fewer than 8 real (4 complex) terms one by one from +0 in index order, in one inner loop per sum.
    Here each term is one vector add over the stack. Longer sums, whose order depends on length, are numpy's reduction.
    """
    n = x.shape[-1]
    if not 0 < n < (4 if x.dtype.kind == "c" else 8):
        return np.add.reduce(x, axis=-1)
    total = x[..., 0] + 0.0
    for k in range(1, n):
        total = total + x[..., k]  # += costs about 1 us more per term on a small stack
    return total


def as_complex_matrix(m, *, bounded: bool = False) -> np.ndarray:
    """Coerce input to a finite 2-D complex128 array; a bounded one also passes require_bounded."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return (require_bounded if bounded else require_finite)(arr, "matrix")


def partial_trace(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Reduced operator on A of a (dim_a*dim_b)-dimensional operator on A (x) B.

    The result carries the trace of the input.
    """
    m = as_complex_matrix(m)
    dim_a, dim_b = joint_dims(m, dim_a, dim_b)
    return np.einsum("ijkj->ik", m.reshape(dim_a, dim_b, dim_a, dim_b))


def positive_int(name: str, value) -> int:
    """value as an int, after a ValueError naming name unless it is an integer of at least 1; a bool is not one."""
    # An exact int skips the numbers.Integral test, an ABC lookup of about 0.4 us.
    if (type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Integral)) and value >= 1:
        return int(value)
    raise ValueError(f"{name} must be a positive integer, got {value!r}")


def joint_dims(m: np.ndarray, dim_a, dim_b) -> tuple[int, int]:
    """(dim_a, dim_b) as positive ints, after a ValueError unless the operator m is (dim_a*dim_b) square."""
    dim_a, dim_b = positive_int("dim_a", dim_a), positive_int("dim_b", dim_b)
    side = dim_a * dim_b
    if m.shape != (side, side):
        raise ValueError(f"operator side {m.shape} does not match dim_a*dim_b = {side}")
    return dim_a, dim_b


def require_orthonormal_columns(cols: np.ndarray) -> None:
    """Raise ValueError unless the columns of cols (..., n, k) are orthonormal within VALIDITY_ATOL."""
    dev = float(np.abs(cols.conj().swapaxes(-1, -2) @ cols - frozen_eye(cols.shape[-1])).max(initial=0.0))
    if not dev <= VALIDITY_ATOL:
        raise ValueError(f"basis columns deviate from orthonormal by {dev:.3e}")


def complete_orthonormal_basis(columns, dim: int) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis of C^dim.

    Candidates are computational basis vectors in index order; each is
    orthogonalized (two Gram-Schmidt passes) against the accepted set and
    kept when a numerically nonzero residual remains. Deterministic.
    """
    cols: list[np.ndarray] = []
    if columns is not None:
        arr = as_complex_matrix(columns, bounded=True)
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
        seed, (stream_id,) = _stream_key(self.seed, (self.stream_id,))
        seq = np.random.SeedSequence(seed, spawn_key=(stream_id,))
        self.generator = np.random.Generator(np.random.PCG64(seq))


def _stream_key(seed, stream_ids) -> tuple[int, list[int]]:
    """seed and stream_ids as ints, after the checks SeededRng makes; errors name the argument."""
    seed, ids = _key_int("seed", seed), [_key_int("stream_id", i) for i in stream_ids]
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if min(ids, default=0) < 0:
        raise ValueError("stream_id must be non-negative")
    return seed, ids


def _key_int(name: str, value) -> int:
    # Numeric strings are parsed; a bool or a float would silently pick another stream.
    if type(value) is int:
        return value
    if isinstance(value, (bool, np.bool_)) or isinstance(value, numbers.Number) and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return converted(name, int, value)


# NumPy's SeedSequence (NEP 19): its hash and mix constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
# The hash constant after n hashmix calls, init * mult**n wrapped to 32 bits: the pool's took 16 calls before the id's 5.
_POOL_HASH = np.array([_INIT_A * pow(_MULT_A, n, 1 << 32) & _MASK32 for n in range(16, 21)], dtype=np.uint32)
_STATE_HASH = np.array([_INIT_B * pow(_MULT_B, n, 1 << 32) & _MASK32 for n in range(9)], dtype=np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    # Row j is one hashmix call with the j-th of len(consts) - 1 successive
    # constants; uint32 arithmetic wraps as the C code does.
    h = (values ^ consts[:-1, None]) * consts[1:, None]
    return h ^ (h >> _XSHIFT)


def stream_seed_words(seed: int, stream_ids) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64) for each i, C-contiguous.

    Row k belongs to the k-th stream id. With a spawn key, SeedSequence mixes
    the seed's four zero-padded uint32 words into a pool that depends on the
    seed alone; here NumPy builds that pool once, and one vectorised pass folds
    every one-word id (below 2**32) into it and hashes out the words. A longer
    id takes SeedSequence itself.
    """
    seed, ids = _stream_key(seed, stream_ids)
    pool = np.random.SeedSequence([seed >> 32 * k & _MASK32 for k in range(4)]).pool
    key = np.array([i & _MASK32 for i in ids], dtype=np.uint32)
    # The pool took 16 hashmix calls; each pool word is mixed with one more on the id word.
    r = _MIX_MULT_L * pool[:, None] - _MIX_MULT_R * _hashmix(key, _POOL_HASH)
    state = _hashmix(np.tile(r ^ (r >> _XSHIFT), (2, 1)), _STATE_HASH).astype(np.uint64)
    words = np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)
    for k, i in enumerate(ids):
        if i > _MASK32:
            words[k] = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)
    return words


def stream_generators(seed: int, stream_ids) -> Iterator[np.random.Generator]:
    """Iterator over Generators at the start of SeededRng(seed, i)'s stream, i in stream_ids.

    Each stream gets its own PCG64, seeded with its row of one
    stream_seed_words pass. Arguments are checked, and the seeds computed, here.
    """
    words = _words_type()
    return (np.random.Generator(np.random.PCG64(words(row))) for row in stream_seed_words(seed, stream_ids))


@cache
def _words_type() -> type:
    # The ISeedSequence that hands PCG64 one stream's row; made on first use, as numpy.random loads only then.
    class Words(np.random.bit_generator.ISeedSequence):
        # PCG64 reads the words through a raw pointer: the row must be C-contiguous.
        def __init__(self, row: np.ndarray) -> None:
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.row

    return Words


def haar_random_unitary(d: int, rng: SeededRng) -> np.ndarray:
    """Haar-distributed d x d unitary: complex Ginibre, QR, phase fix."""
    d = positive_int("d", d)
    return unitary_from_ginibre(complex_ginibre(rng.generator, (d, d), 1)[0])


def complex_ginibre(g: np.random.Generator, shape, count: int) -> np.ndarray:
    """count complex Ginibre arrays of the given shape, stacked on a new leading axis, entries of unit variance.

    Each array draws all its real parts first, then all its imaginary parts; all count arrays come from one generator call.
    """
    parts = g.standard_normal((count, 2, *shape))
    return (parts[:, 0] + 1j * parts[:, 1]) / _SQRT2


def unitary_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Q of the QR of each matrix on z's last two axes, phase-fixed by diag(R).

    Fed complex Ginibre matrices, this yields Haar unitaries; leading axes
    are batch axes.
    """
    q, r = np.linalg.qr(z)
    diag = r.diagonal(0, -2, -1)
    mods = np.abs(diag)
    phases = np.where(positive := mods > 0, diag / np.where(positive, mods, 1.0), 1.0)
    return q * phases[..., None, :]


def random_pure_state(d: int, rng: SeededRng) -> np.ndarray:
    """Haar-distributed unit vector in C^d (normalized complex Gaussian)."""
    d, g = positive_int("d", d), rng.generator
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


def json_fields(obj, kind: str, keys: tuple) -> list:
    """obj[key] for each key, after a ValueError unless obj is a JSON object holding every key; kind names the value."""
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} value must be a JSON object")
    values = []
    for key in keys:
        if key not in obj:
            raise ValueError(f"{kind} object is missing field '{key}'")
        values.append(obj[key])
    return values


def json_pairs(obj: dict, key: str, count: int, rule: str, what: str) -> np.ndarray:
    """Complex vector from obj[key], a list of count [re, im] pairs; rule says how count follows from the dimensions."""
    pairs = obj[key]
    if not isinstance(pairs, list) or len(pairs) != count:
        got = len(pairs) if isinstance(pairs, list) else type(pairs).__name__
        raise ValueError(f"field '{key}' must list {rule} = {count} pairs, got {got}")
    return complex_from_json_pairs(pairs, what)


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
    rows, cols, _ = json_fields(obj, "matrix", ("rows", "cols", "entries"))
    rows, cols = positive_int("field 'rows'", rows), positive_int("field 'cols'", cols)
    entries = json_pairs(obj, "entries", rows * cols, "rows*cols", "entry")
    return require_finite(entries.reshape(rows, cols), "field 'entries'")
