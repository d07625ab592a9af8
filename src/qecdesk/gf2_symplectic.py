"""Exact Pauli-product algebra in the binary symplectic representation.

A product of single-qubit Paulis is stored as two bit-packed integers (one
bit per qubit for each half of the 2-bit symbol) plus a power of i.  The
symbol encoding is I=00, X=01, Y=10, Z=11, so a word on n qubits is a vector
in GF(2)^(2n); two words commute exactly when their symplectic product
vanishes.  All group arithmetic here is integer-exact, including phases.
A word acts on a vector as a signed row gather (`index_map`), so neither the
analysis nor the codespace build needs its dense matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

_SYMBOLS = "IXYZ"
# symbol code = 2a + b for the bit pair (a, b)
_CODE = {"I": 0, "X": 1, "Y": 2, "Z": 3}

# power of i picked up by the single-qubit product s*t, indexed [s][t];
# cyclic X->Y->Z->X gives +i, the reverse order gives -i
_PHASE_POW = (
    (0, 0, 0, 0),
    (0, 0, 1, 3),
    (0, 3, 0, 1),
    (0, 1, 3, 0),
)

_PHASE_TOKEN = {0: "", 1: "+i", 2: "-", 3: "-i"}
_TOKEN_PHASE = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}

class SearchCapExceeded(Exception):
    """Raised when a minimum-distance search passes its weight cap."""

    def __init__(self, cap: int):
        super().__init__(f"no element found up to weight cap {cap}")
        self.cap = cap


def _index_bits(bits: int, n: int) -> int:
    """Reverse n bits: bit j of a word (qubit j) is bit n-1-j of a basis index."""
    return int(f"{bits:0{n}b}"[::-1], 2)


@dataclass(frozen=True)
class PauliProduct:
    """Phase times a tensor product of I/X/Y/Z factors, qubit 0 leftmost."""

    n: int
    a_bits: int
    b_bits: int
    phase_k: int = 0  # phase is i**phase_k

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        mask = (1 << self.n) - 1
        if (self.a_bits | self.b_bits) & ~mask:
            raise ValueError("symbol bits outside the declared qubit count")
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
        a = b = 0
        for j, c in enumerate(word):
            code = _CODE[c]
            a |= (code >> 1) << j
            b |= (code & 1) << j
        return cls(len(word), a, b, _TOKEN_PHASE[token])

    def symbol(self, j: int) -> int:
        return (((self.a_bits >> j) & 1) << 1) | ((self.b_bits >> j) & 1)

    def __str__(self) -> str:
        word = "".join(_SYMBOLS[self.symbol(j)] for j in range(self.n))
        return _PHASE_TOKEN[self.phase_k] + word

    @property
    def phase(self) -> complex:
        return (1, 1j, -1, -1j)[self.phase_k]

    def phase_free(self) -> "PauliProduct":
        return PauliProduct(self.n, self.a_bits, self.b_bits, 0)

    def weight(self) -> int:
        return (self.a_bits | self.b_bits).bit_count()

    def multiply(self, other: "PauliProduct") -> "PauliProduct":
        """Group product with exact phase tracking."""
        if other.n != self.n:
            raise ValueError("qubit counts differ")
        k = self.phase_k + other.phase_k
        for j in range(self.n):
            k += _PHASE_POW[self.symbol(j)][other.symbol(j)]
        return PauliProduct(
            self.n, self.a_bits ^ other.a_bits, self.b_bits ^ other.b_bits, k % 4
        )

    def symplectic_int(self) -> int:
        """Interleaved GF(2) vector as an int: bit 2j is a_j, bit 2j+1 is b_j."""
        v = 0
        for j in range(self.n):
            v |= ((self.a_bits >> j) & 1) << (2 * j)
            v |= ((self.b_bits >> j) & 1) << (2 * j + 1)
        return v

    def commutes(self, other: "PauliProduct") -> bool:
        if other.n != self.n:
            raise ValueError("qubit counts differ")
        x = (self.a_bits & other.b_bits) ^ (self.b_bits & other.a_bits)
        return x.bit_count() % 2 == 0

    def index_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, coef) with (P v)[i] = coef[i] * v[src[i]], qubit 0 the most
        significant bit of i.

        X and Y flip their qubit's bit, so src = i ^ x; Z and Y read it, for a
        sign (-1)^popcount(src & z); and Y = iXZ adds one power of i each.
        """
        n = self.n
        x = _index_bits(self.a_bits ^ self.b_bits, n)
        z = _index_bits(self.a_bits, n)
        ys = (self.a_bits & ~self.b_bits).bit_count()
        src = np.arange(2 ** n) ^ x
        parity = np.zeros_like(src)
        for bit in range(n):
            if z >> bit & 1:
                parity ^= src >> bit
        phase = (1, 1j, -1, -1j)[(self.phase_k + ys) % 4]
        return src, np.where(parity & 1, -phase, phase).astype(complex)

    def apply(self, m) -> np.ndarray:
        """P m for a vector or the columns of a matrix: a row gather with a sign."""
        m = np.asarray(m)
        if m.shape[:1] != (2 ** self.n,):
            raise ValueError(f"{self} acts on {2 ** self.n} rows, got shape {m.shape}")
        src, coef = self.index_map()
        out = m[src].astype(complex, copy=False)
        out *= coef.reshape((-1,) + (1,) * (m.ndim - 1))
        return out

    def dense(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, qubit 0 as the most significant factor."""
        src, coef = self.index_map()
        m = np.zeros((src.size, src.size), dtype=complex)
        m[np.arange(src.size), src] = coef
        return m


def identity_word(n: int) -> PauliProduct:
    return PauliProduct(n, 0, 0, 0)


def single_qubit_word(n: int, j: int, letter: str) -> PauliProduct:
    """The word with `letter` on qubit j (0-based) and identity elsewhere."""
    if not 0 <= j < n:
        raise ValueError(f"qubit index {j} out of range for n={n}")
    code = _CODE[letter]
    return PauliProduct(n, (code >> 1) << j, (code & 1) << j, 0)


# --- bit-packed GF(2) elimination ------------------------------------------


def _rref(rows: list[int], ncols: int):
    """Reduced row echelon form; returns (pivot column list, reduced rows)."""
    rows = [r for r in rows if r]
    pivots: list[int] = []
    reduced: list[int] = []
    for col in range(ncols):
        bit = 1 << col
        hit = next((i for i, r in enumerate(rows) if r & bit), None)
        if hit is None:
            continue
        piv = rows.pop(hit)
        reduced = [r ^ piv if r & bit else r for r in reduced]
        rows = [r ^ piv if r & bit else r for r in rows]
        reduced.append(piv)
        pivots.append(col)
        if not rows:
            break
    return pivots, reduced


def _in_span(pivots: list[int], reduced: list[int], vec: int) -> bool:
    for col, row in zip(pivots, reduced):
        if vec & (1 << col):
            vec ^= row
    return vec == 0


def _nullspace(rows: list[int], ncols: int) -> list[int]:
    """Basis of {x : row . x = 0 for all rows}, bit-packed, deterministic."""
    pivots, reduced = _rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = 1 << free
        for col, row in zip(pivots, reduced):
            if row & (1 << free):
                v |= 1 << col
        basis.append(v)
    return basis


def _word_from_symplectic(n: int, v: int) -> PauliProduct:
    a = b = 0
    for j in range(n):
        a |= ((v >> (2 * j)) & 1) << j
        b |= ((v >> (2 * j + 1)) & 1) << j
    return PauliProduct(n, a, b, 0)


class StabilizerGeneratorSet:
    """A commuting list of phase-free Pauli words, used as stabilizer generators."""

    def __init__(self, generators: list[PauliProduct]):
        if not generators:
            raise ValueError("need at least one generator")
        n = generators[0].n
        gens = []
        for g in generators:
            if g.n != n:
                raise ValueError("generators act on different qubit counts")
            if g.phase_k != 0:
                raise ValueError(f"generator {g} must carry phase +1")
            gens.append(g)
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                if not g.commutes(h):
                    raise ValueError(f"generators {g} and {h} anticommute")
        self.n = n
        self.generators = tuple(gens)
        self._pivots, self._reduced = _rref(
            [g.symplectic_int() for g in gens], 2 * n
        )

    @classmethod
    def from_strings(cls, words: list[str]) -> "StabilizerGeneratorSet":
        return cls([PauliProduct.from_string(w) for w in words])

    def rank(self) -> int:
        return len(self._pivots)

    def contains(self, p: PauliProduct) -> bool:
        """Phase-free membership in the generated group."""
        if p.n != self.n:
            raise ValueError("qubit counts differ")
        return _in_span(self._pivots, self._reduced, p.symplectic_int())

    def centralizer(self) -> list[PauliProduct]:
        """Deterministic GF(2) basis of everything commuting with all generators."""
        # constraint row for g swaps the two bits of each pair
        rows = [
            PauliProduct(self.n, g.b_bits, g.a_bits, 0).symplectic_int()
            for g in self.generators
        ]
        basis = _nullspace(rows, 2 * self.n)
        return [_word_from_symplectic(self.n, v) for v in basis]

    def in_centralizer(self, p: PauliProduct) -> bool:
        return all(p.commutes(g) for g in self.generators)

    def min_distance(self, alphabet: str = "XYZ", cap: int = 5) -> int:
        """Smallest weight of a centralizer element outside the generated group.

        Enumerates words of increasing weight whose non-identity letters are
        drawn from `alphabet`.  Raises SearchCapExceeded past the cap rather
        than guessing.
        """
        return _first_weight(
            self.n, alphabet, cap,
            lambda p: self.in_centralizer(p) and not self.contains(p),
        )


def _pauli_words(n: int, max_weight: int, alphabet: str = "XYZ"):
    """Yield (support, letters, word) for every word of weight 1..max_weight.

    Order: weight ascending, then supports in combinations order, then
    letters in product order over the sorted alphabet.
    """
    letters = sorted(set(alphabet))
    if any(c not in "XYZ" for c in letters) or not letters:
        raise ValueError(f"alphabet must be a nonempty subset of XYZ, got {alphabet!r}")
    for w in range(1, min(max_weight, n) + 1):
        for support in itertools.combinations(range(n), w):
            for choice in itertools.product(letters, repeat=w):
                a = b = 0
                for j, c in zip(support, choice):
                    a |= (_CODE[c] >> 1) << j
                    b |= (_CODE[c] & 1) << j
                yield support, choice, PauliProduct(n, a, b, 0)


def _first_weight(n: int, alphabet: str, cap: int, predicate) -> int:
    """Smallest weight of a word with predicate(word) true; SearchCapExceeded past cap."""
    for support, _, word in _pauli_words(n, cap, alphabet):
        if predicate(word):
            return len(support)
    raise SearchCapExceeded(cap)
