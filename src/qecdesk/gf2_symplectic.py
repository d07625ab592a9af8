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
as a signed row gather (`index_map`), so neither the analysis nor the
codespace build needs its dense matrix.

A set of words is one array form: boolean rows [X | Z], qubit j in columns
j and n + j (`_word_arrays` yields them in chunks of bounded size).  A
generator set is its rows and one GF(2) elimination of them (`_rref`, the
only one here): commutation with every generator is one integer product mod
2, the syndromes X Gz^T + Z Gx^T; membership is a reduction of the rows
against the echelon; the Z-type subgroup, the relations and the centralizer
are read off echelons too.  Bit masks (`_masks`) give all the row gathers of
a set at once (`_apply_words`); popcounts come from a byte table, so no
numpy 2 function is needed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

_SYMBOLS = "IXYZ"
# (x, z) bits of each letter; Y = iXZ carries both
_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

_PHASE_TOKEN = {0: "", 1: "+i", 2: "-", 3: "-i"}
_TOKEN_PHASE = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}
_PHASES = np.array([1, 1j, -1, -1j])  # i**k
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
_WORD_CHUNK = 4096  # rows in one chunk of a word set

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

    @property
    def phase(self) -> complex:
        return (1, 1j, -1, -1j)[self.phase_k]

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

    def _arrays(self):
        return np.array([self.x_bits]), np.array([self.z_bits]), self.phase_k

    def index_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, coef) with (P v)[i] = coef[i] * v[src[i]], qubit 0 the most
        significant bit of i: src = i ^ x, and coef = i^(phase_k + y) signed by
        (-1)^|src & z|."""
        src, coef = _index_maps(self.n, *self._arrays())
        return src[0], coef[0]

    def apply(self, m) -> np.ndarray:
        """P m for a vector or the columns of a matrix: a row gather with a sign."""
        m = np.asarray(m)
        if m.shape[:1] != (2 ** self.n,):
            raise ValueError(f"{self} acts on {2 ** self.n} rows, got shape {m.shape}")
        return _apply_words(self.n, *self._arrays(), m)[0]

    def dense(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, qubit 0 as the most significant factor."""
        src, coef = self.index_map()
        m = np.zeros((src.size, src.size), dtype=complex)
        m[np.arange(src.size), src] = coef
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
    return sum(_POPCOUNT[v >> s & 0xFF] for s in range(0, nbits, 8))


def _masks(b: np.ndarray) -> np.ndarray:
    """The bit masks of boolean (m, n) rows, qubit j at bit n-1-j: int64,
    or Python ints past 62 qubits."""
    n = b.shape[1]
    place = [1 << s for s in range(n - 1, -1, -1)]
    return b.dot(np.array(place, dtype=np.int64 if n <= 62 else object))


def _index_maps(n: int, x: np.ndarray, z: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """index_map of every word with masks x, z and phase powers k (arrays of
    one length, or k a scalar), stacked: src and coef are (len(x), 2^n)."""
    src = np.arange(2 ** n) ^ x[:, None]
    q = (k + _popcount(x & z, n))[:, None] + 2 * _popcount(src & z[:, None], n)
    return src, _PHASES[q % 4]


def _apply_words(n: int, x: np.ndarray, z: np.ndarray, k, m: np.ndarray) -> np.ndarray:
    """P_i m for every word of _index_maps, stacked as (len(x),) + m.shape:
    one signed row gather for all of them."""
    src, coef = _index_maps(n, x, z, k)
    out = m[src].astype(complex, copy=False)
    out *= coef.reshape(coef.shape + (1,) * (m.ndim - 1))
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
        for g in generators:
            if g.n != n:
                raise ValueError("generators act on different qubit counts")
            if g.phase_k != 0:
                raise ValueError(f"generator {g} must carry phase +1")
        self.n = n
        self.generators = gens = tuple(generators)
        rows = _word_rows(gens, n)
        self._zx = np.hstack([rows[:, n:], rows[:, :n]]).T.astype(np.uint8)
        first, second = np.nonzero(np.triu(self._syndromes(rows), 1))
        if first.size:
            raise ValueError(f"generators {gens[first[0]]} and {gens[second[0]]} anticommute")
        pivots, reduced = _rref(np.hstack([rows, np.eye(len(gens), dtype=bool)]))
        pivots = np.array(pivots)
        self._echelon = [(int(c), row) for c, row in zip(pivots, reduced[:, :2 * n]) if c < 2 * n]
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
        per generator g, from the uint8 [Z | X]^T: sums wrap mod 256, which
        keeps their parity.  This decides every commutation question."""
        return (rows.view(np.uint8) @ self._zx) & 1

    def _residues(self, rows: np.ndarray) -> np.ndarray:
        """(x | z) rows reduced in place against the echelon: a row ends zero
        exactly when its word is in the generated group, up to phase."""
        for col, row in self._echelon:
            rows[rows[:, col]] ^= row
        return rows

    def rank(self) -> int:
        return len(self._echelon)

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
        chunk's syndromes are one integer product mod 2, and only the rows
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
    lx = np.array([_XZ[c][0] for c in letters], dtype=bool)
    lz = np.array([_XZ[c][1] for c in letters], dtype=bool)
    a = len(letters)
    for w in range(1, min(max_weight, n) + 1):
        t = w  # the last t letters vary within a chunk, the leading w - t do not
        while t and a ** t > chunk:
            t -= 1
        tails = np.array(list(itertools.product(range(a), repeat=t)), dtype=np.intp)
        tails = tails.reshape(a ** t, t)
        supports = itertools.combinations(range(n), w)
        while batch := list(itertools.islice(supports, max(1, chunk // a ** w))):
            cols = np.repeat(np.array(batch), len(tails), axis=0)
            r = np.arange(len(cols))[:, None]
            for lead in itertools.product(range(a), repeat=w - t):
                head = np.broadcast_to(np.array(lead, dtype=np.intp), (len(tails), w - t))
                choice = np.tile(np.hstack([head, tails]), (len(batch), 1))
                x = np.zeros((len(cols), n), dtype=bool)
                z = np.zeros((len(cols), n), dtype=bool)
                x[r, cols] = lx[choice]
                z[r, cols] = lz[choice]
                yield w, x, z
