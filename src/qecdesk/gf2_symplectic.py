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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

_SYMBOLS = "IXYZ"
# (x, z) bits of each letter; Y = iXZ carries both
_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

_PHASE_TOKEN = {0: "", 1: "+i", 2: "-", 3: "-i"}
_TOKEN_PHASE = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}

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

    def symplectic_int(self) -> int:
        """(x | z) as one int: x in the high n bits, z in the low n bits."""
        return self.x_bits << self.n | self.z_bits

    def commutes(self, other: "PauliProduct") -> bool:
        if other.n != self.n:
            raise ValueError("qubit counts differ")
        x = (self.x_bits & other.z_bits) ^ (self.z_bits & other.x_bits)
        return x.bit_count() % 2 == 0

    def index_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, coef) with (P v)[i] = coef[i] * v[src[i]], qubit 0 the most
        significant bit of i: src = i ^ x, and coef = i^(phase_k + y) signed by
        (-1)^|src & z|."""
        src = np.arange(2 ** self.n) ^ self.x_bits
        phase = (1, 1j, -1, -1j)[(self.phase_k + self._ys()) % 4]
        parity = np.zeros_like(src)
        for bit in range(self.n):
            if self.z_bits >> bit & 1:
                parity ^= src >> bit
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


def _letters_word(n: int, qubits, letters, phase_k: int = 0) -> PauliProduct:
    """The word with letters[i] on qubit qubits[i] and identity elsewhere."""
    x = z = 0
    for j, c in zip(qubits, letters):
        x |= _XZ[c][0] << (n - 1 - j)
        z |= _XZ[c][1] << (n - 1 - j)
    return PauliProduct(n, x, z, phase_k)


def identity_word(n: int) -> PauliProduct:
    return PauliProduct(n, 0, 0, 0)


def single_qubit_word(n: int, j: int, letter: str) -> PauliProduct:
    """The word with `letter` on qubit j (0-based) and identity elsewhere."""
    if not 0 <= j < n:
        raise ValueError(f"qubit index {j} out of range for n={n}")
    return _letters_word(n, (j,), letter)


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
        # p commutes with g exactly when (z_g | x_g) . (x_p | z_p) is even
        n, mask = self.n, (1 << self.n) - 1
        rows = [g.z_bits << n | g.x_bits for g in self.generators]
        return [PauliProduct(n, v >> n, v & mask, 0) for v in _nullspace(rows, 2 * n)]

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
                yield support, choice, _letters_word(n, support, choice)


def _first_weight(n: int, alphabet: str, cap: int, predicate) -> int:
    """Smallest weight of a word with predicate(word) true; SearchCapExceeded past cap."""
    for support, _, word in _pauli_words(n, cap, alphabet):
        if predicate(word):
            return len(support)
    raise SearchCapExceeded(cap)
