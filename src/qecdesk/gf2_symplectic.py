"""Exact Pauli-product algebra in the binary symplectic representation.

A word on n qubits is its vector (x | z) in GF(2)^(2n) plus a power of i:
PauliProduct(n, x_bits, z_bits, phase_k) is the operator

    i^(phase_k + y) X^x Z^z,    y = |x & z|,

so X is (1, 0), Z is (0, 1) and Y = iXZ is (1, 1), and phase_k is the phase
printed before the letters.  Qubit j sits at bit n-1-j of each mask, the bit
it occupies in a computational-basis index: X^x sends index i to i ^ x and
Z^z signs it by (-1)^|i & z|.  Moving Z^z1 past X^x2 costs (-1)^|z1 & x2|,
so a product is a few popcounts, with no loop over the qubits:

    k3 = k1 + k2 + y1 + y2 - y3 + 2|z1 & x2|  (mod 4).

Two words commute exactly when |x1 & z2| + |z1 & x2| is even.  All group
arithmetic here is integer-exact, including phases.  A word acts on a vector
as a signed row gather (`_index_maps`), so neither the analysis nor the
codespace build needs its dense matrix.

A set of words is one array form: boolean rows [X | Z], qubit j in columns
j and n + j (`_word_arrays` yields them in chunks of bounded size).  A
generator set is its rows and one GF(2) elimination of them (`_rref`, the
only one here): commutation with every generator is one float32 BLAS
product taken mod 2, the syndromes X Gz^T + Z Gx^T; membership is a
reduction of the rows against the reduced echelon, one more such product;
the Z-type subgroup, the relations and the centralizer are read off
echelons too.  Bit masks (`_masks`) give all the row gathers of a set at
once (`_apply_words`, one np.take of rows); popcounts come from a byte
table, so no numpy 2 function is needed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .hilbert import admit

_SYMBOLS = "IXYZ"
# (x, z) bits of each letter; Y = iXZ carries both
_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

_PHASE_TOKEN = {0: "", 1: "+i", 2: "-", 3: "-i"}
_TOKEN_PHASE = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}
_PHASES = np.array([1, 1j, -1, -1j])  # i**k
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
_WORD_CHUNK = 4096  # rows in one chunk of a word set
_MAX_SYNDROME_QUBITS = 2 ** 23  # 2n ones per syndrome sum stay exact in float32

class SearchCapExceeded(Exception):
    """Raised when a minimum-distance search passes its weight cap."""

    def __init__(self, cap: int):
        super().__init__(f"no element found up to weight cap {cap}")
        self.cap = cap


@dataclass(frozen=True)
class PauliProduct:
    """Phase times a tensor product of I/X/Y/Z factors, qubit 0 leftmost."""

    n: int
    x_bits: int
    z_bits: int
    phase_k: int = 0  # the printed phase is i**phase_k

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        mask = (1 << self.n) - 1
        if (self.x_bits | self.z_bits) & ~mask:
            raise ValueError("x or z bits outside the declared qubit count")
        object.__setattr__(self, "phase_k", self.phase_k % 4)

    @classmethod
    def from_string(cls, text: str) -> "PauliProduct":
        """Parse '[phase]WORD', phase in {+, -, +i, -i, i}, e.g. '-iXZZXI'."""
        s = text.strip()
        split = 0
        while split < len(s) and s[split] not in _SYMBOLS:
            split += 1
        token, word = s[:split], s[split:]
        if token not in _TOKEN_PHASE:
            raise ValueError(f"bad phase token {token!r} in {text!r}")
        if not word or any(c not in _SYMBOLS for c in word):
            raise ValueError(f"bad Pauli word {word!r} in {text!r}")
        return _letters_word(len(word), range(len(word)), word, _TOKEN_PHASE[token])

    def symbol(self, j: int) -> int:
        """Index into IXYZ of the letter on qubit j."""
        s = self.n - 1 - j
        return (0, 3, 1, 2)[(self.x_bits >> s & 1) << 1 | (self.z_bits >> s & 1)]

    def __str__(self) -> str:
        word = "".join(_SYMBOLS[self.symbol(j)] for j in range(self.n))
        return _PHASE_TOKEN[self.phase_k] + word

    def phase_free(self) -> "PauliProduct":
        return PauliProduct(self.n, self.x_bits, self.z_bits, 0)

    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    def _ys(self) -> int:
        return (self.x_bits & self.z_bits).bit_count()

    def multiply(self, other: "PauliProduct") -> "PauliProduct":
        """Group product with exact phase tracking (the rule in the module doc)."""
        if other.n != self.n:
            raise ValueError("qubit counts differ")
        x, z = self.x_bits ^ other.x_bits, self.z_bits ^ other.z_bits
        k = (self.phase_k + other.phase_k + self._ys() + other._ys() - (x & z).bit_count()
             + 2 * (self.z_bits & other.x_bits).bit_count())
        return PauliProduct(self.n, x, z, k)

    def commutes(self, other: "PauliProduct") -> bool:
        if other.n != self.n:
            raise ValueError("qubit counts differ")
        x = (self.x_bits & other.z_bits) ^ (self.z_bits & other.x_bits)
        return x.bit_count() % 2 == 0

    def dense(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, qubit 0 as the most significant factor,
        admitted by its dimension before anything is built."""
        admit(f"dense Pauli word on {self.n} qubits", dim=(2, self.n))
        src, coef = _index_maps(self.n, np.array([self.x_bits]), np.array([self.z_bits]),
                                self.phase_k)
        m = np.zeros((src.size, src.size), dtype=complex)
        m[np.arange(src.size), src[0]] = coef[0]
        return m


def _letters_word(n: int, qubits, letters, phase_k: int = 0) -> PauliProduct:
    """The word with letters[i] on qubit qubits[i] and identity elsewhere."""
    x = z = 0
    for j, c in zip(qubits, letters):
        x |= _XZ[c][0] << (n - 1 - j)
        z |= _XZ[c][1] << (n - 1 - j)
    return PauliProduct(n, x, z, phase_k)


def _popcount(v: np.ndarray, nbits: int) -> np.ndarray:
    """Popcount of each entry of a nonnegative int array below 2**nbits,
    summed from the byte table."""
    return sum(np.take(_POPCOUNT, v >> s & 0xFF) for s in range(0, nbits, 8))


def _masks(b: np.ndarray) -> np.ndarray:
    """The bit masks of boolean (m, n) rows, qubit j at bit n-1-j: int64,
    or Python ints past 62 qubits."""
    n = b.shape[1]
    place = [1 << s for s in range(n - 1, -1, -1)]
    return b.dot(np.array(place, dtype=np.int64 if n <= 62 else object))


def _sources(n: int, x: np.ndarray, z: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """(src, q) of every word with masks x, z and phase powers k (arrays of
    one length, or k a scalar) as (2^n, len(x)) arrays: (P_i v)[j] is
    i^q[j, i] v[src[j, i]], src = j ^ x_i and q = k_i + y_i + 2|src & z_i|
    mod 4, the popcounts of src & z read from one table over the 2^n
    indices."""
    index = np.arange(2 ** n)[:, None]
    src = index ^ x
    q = k + _popcount(x & z, n) + 2 * np.take(_popcount(index, n), src & z)
    return src, q & 3


def _index_maps(n: int, x: np.ndarray, z: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """(src, coef) of every word of _sources, stacked as (len(x), 2^n)
    arrays: (P_i v)[j] = coef[i, j] * v[src[i, j]]."""
    src, q = _sources(n, x, z, k)
    return src.T, np.take(_PHASES, q.T)


def _apply_words(n: int, x: np.ndarray, z: np.ndarray, k, m: np.ndarray) -> np.ndarray:
    """P_i m for every word of _sources, at [:, i] of a (2^n, len(x)) +
    m.shape[1:] array, so the blocks of a matrix m sit side by side in
    .reshape(2^n, -1): one np.take of the rows of m (not fancy indexing,
    numpy's slower path) for every word at once, then the phases."""
    src, q = _sources(n, x, z, k)
    out = np.take(m, src, axis=0).astype(complex, copy=False)
    out *= np.take(_PHASES, q).reshape(q.shape + (1,) * (m.ndim - 1))
    return out


def identity_word(n: int) -> PauliProduct:
    return PauliProduct(n, 0, 0, 0)


def single_qubit_word(n: int, j: int, letter: str) -> PauliProduct:
    """The word with `letter` on qubit j (0-based) and identity elsewhere."""
    if not 0 <= j < n:
        raise ValueError(f"qubit index {j} out of range for n={n}")
    return _letters_word(n, (j,), letter)


# --- GF(2) elimination on boolean rows --------------------------------------


def _word_rows(words, n: int) -> np.ndarray:
    """[X | Z] of the words as boolean (m, 2n) rows, qubit j in columns j and
    n + j; phases are dropped."""
    text = "".join(f"{w.x_bits:0{n}b}{w.z_bits:0{n}b}" for w in words)
    return (np.frombuffer(text.encode(), dtype=np.uint8) == ord("1")).reshape(-1, 2 * n)


def _gf2_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod 2 for boolean a and float32 0/1 b, as one float32 BLAS
    product: exact while each sum, at most a.shape[1] ones, is below 2^24."""
    return (a.astype(np.float32) @ b).astype(np.int32) & 1


def _rref(rows: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Reduced row echelon form of boolean rows over GF(2): (pivot columns,
    the nonzero reduced rows), row i with its leading 1 in column pivots[i]."""
    rows = rows.copy()
    pivots: list[int] = []
    for col in range(rows.shape[1]):
        r = len(pivots)
        hit = np.flatnonzero(rows[r:, col])
        if hit.size:
            rows[[r, r + hit[0]]] = rows[[r + hit[0], r]]
            flip = rows[:, col].copy()
            flip[r] = False
            rows[flip] ^= rows[r]
            pivots.append(col)
    return pivots, rows[:len(pivots)]


class StabilizerGeneratorSet:
    """A commuting list of phase-free Pauli words, used as stabilizer
    generators, read as their boolean (r, 2n) rows [X | Z].

    One elimination of [X | Z | I_r], X columns first, answers the group
    questions.  Its rows with a pivot in [X | Z] are the echelon that words
    reduce against.  Its rows with no X part generate the Z-type subgroup,
    their I_r part naming the generators to multiply (`z_type`); with no Z
    part either they are relations, products equal to +-I, and -I is refused.
    """

    def __init__(self, generators: list[PauliProduct]):
        if not generators:
            raise ValueError("need at least one generator")
        n = generators[0].n
        if n >= _MAX_SYNDROME_QUBITS:
            raise ValueError(f"generators on {n} qubits: syndromes are float32 sums of up to "
                             f"2n ones, exact only below 2^24, so n must be below 2^23")
        for g in generators:
            if g.n != n:
                raise ValueError("generators act on different qubit counts")
            if g.phase_k != 0:
                raise ValueError(f"generator {g} must carry phase +1")
        self.n = n
        self.generators = gens = tuple(generators)
        rows = _word_rows(gens, n)
        self._zx = np.hstack([rows[:, n:], rows[:, :n]]).T.astype(np.float32)
        first, second = np.nonzero(np.triu(self._syndromes(rows), 1))
        if first.size:
            raise ValueError(f"generators {gens[first[0]]} and {gens[second[0]]} anticommute")
        pivots, reduced = _rref(np.hstack([rows, np.eye(len(gens), dtype=bool)]))
        pivots = np.array(pivots, dtype=np.intp)
        own = pivots < 2 * n
        self._pivots = pivots[own]
        self._echelon = reduced[own, :2 * n].astype(np.float32)
        self._z_choices = reduced[pivots >= n, 2 * n:]
        for chosen in reduced[pivots >= 2 * n, 2 * n:]:
            if self._product(chosen).phase_k:
                named = ", ".join(map(str, itertools.compress(gens, chosen)))
                raise ValueError(f"generators {named} multiply to -I: they stabilize no state")

    @classmethod
    def from_strings(cls, words: list[str]) -> "StabilizerGeneratorSet":
        return cls([PauliProduct.from_string(w) for w in words])

    def _product(self, chosen) -> PauliProduct:
        """The product of the generators that the boolean row `chosen` picks,
        in order, phase kept."""
        return functools.reduce(PauliProduct.multiply, itertools.compress(self.generators, chosen))

    def _row(self, p: PauliProduct) -> np.ndarray:
        if p.n != self.n:
            raise ValueError("qubit counts differ")
        return _word_rows([p], self.n)

    def _syndromes(self, rows: np.ndarray) -> np.ndarray:
        """The syndrome bits x.g_z + z.g_x of boolean (x | z) rows, one column
        per generator g: one float32 BLAS product with [Z | X]^T, then parity.
        Each sum counts at most 2n ones, an integer that float32 holds exactly
        below 2^24, and the constructor refuses n >= 2^23.  This decides every
        commutation question."""
        return _gf2_product(rows, self._zx)

    def _residues(self, rows: np.ndarray) -> np.ndarray:
        """(x | z) rows reduced against the echelon: a row ends zero exactly
        when its word is in the generated group, up to phase.  The echelon is
        fully reduced, so a row takes echelon row i exactly when it holds a 1
        in pivot column i: one float32 product mod 2, its sums at most the
        rank."""
        return rows ^ _gf2_product(np.take(rows, self._pivots, axis=1), self._echelon).astype(bool)

    def rank(self) -> int:
        return len(self._pivots)

    @functools.cached_property
    def z_type(self) -> tuple[PauliProduct, ...]:
        """A basis of the Z-type subgroup, products of generators whose X parts
        cancel, phases kept: r - rank(X) words, the +I relations among them."""
        return tuple(self._product(chosen) for chosen in self._z_choices)

    def contains(self, p: PauliProduct) -> bool:
        """Phase-free membership in the generated group."""
        return not self._residues(self._row(p)).any()

    def centralizer(self) -> list[PauliProduct]:
        """Deterministic GF(2) basis of everything commuting with all
        generators: the null space of [Z | X], read off its echelon."""
        n = self.n
        pivots, reduced = _rref(self._zx.T.astype(bool))
        free = [c for c in range(2 * n) if c not in pivots]
        basis = np.zeros((len(free), 2 * n), dtype=bool)
        basis[np.arange(len(free)), free] = True
        basis[:, pivots] = reduced[:, free].T
        return [PauliProduct(n, int(x), int(z))
                for x, z in zip(_masks(basis[:, :n]), _masks(basis[:, n:]))]

    def in_centralizer(self, p: PauliProduct) -> bool:
        return not self._syndromes(self._row(p)).any()

    def min_distance(self, alphabet: str = "XYZ", cap: int = 5) -> int:
        """Smallest weight of a centralizer element outside the generated group.

        Searches the words of increasing weight whose non-identity letters
        are drawn from `alphabet`, a chunk of _word_arrays at a time: the
        chunk's syndromes are one float32 product mod 2, and only the rows
        with a zero syndrome are reduced against the echelon.  Raises
        SearchCapExceeded past the cap rather than guessing.
        """
        for w, x, z in _word_arrays(self.n, cap, alphabet):
            rows = np.hstack([x, z])
            if self._residues(rows[~self._syndromes(rows).any(axis=1)]).any():
                return w
        raise SearchCapExceeded(cap)


def _word_arrays(n: int, max_weight: int, alphabet: str = "XYZ", chunk: int = _WORD_CHUNK):
    """Yield the words of weight 1..max_weight as (w, x, z): x and z boolean
    (m, n) matrices, qubit j in column j, and m <= chunk.

    Order: weight ascending, then supports in combinations order, then
    letters in product order over the sorted alphabet.  A chunk holds several
    whole supports, or one support's letter choices that share their leading
    letters; it is built only when it is read, so a search that stops early
    builds no later chunk and memory does not grow with max_weight.
    """
    letters = sorted(set(alphabet))
    if any(c not in "XYZ" for c in letters) or not letters:
        raise ValueError(f"alphabet must be a nonempty subset of XYZ, got {alphabet!r}")
    lx, lz = np.array([_XZ[c] for c in letters], dtype=bool).T
    a = len(letters)
    for w in range(1, min(max_weight, n) + 1):
        t = w  # the last t letters vary within a chunk, the leading w - t do not
        while t and a ** t > chunk:
            t -= 1
        # the bits of every choice of the last t letters, in product order
        tails = np.indices((a,) * t).reshape(t, a ** t).T
        tx, tz = lx[tails], lz[tails]
        supports = itertools.combinations(range(n), w)
        while batch := list(itertools.islice(supports, max(1, chunk // a ** w))):
            cols = np.array(batch).T  # row j: the j-th qubit of each support
            b = np.arange(len(batch))
            for lead in itertools.product(range(a), repeat=w - t):
                x = np.zeros((len(batch), a ** t, n), dtype=bool)
                z = np.zeros_like(x)
                for j, col in enumerate(cols):
                    i = j - (w - t)  # the letter's place among the tails, < 0 in the lead
                    x[b, :, col] = tx[:, i] if i >= 0 else lx[lead[j]]
                    z[b, :, col] = tz[:, i] if i >= 0 else lz[lead[j]]
                yield w, x.reshape(-1, n), z.reshape(-1, n)
