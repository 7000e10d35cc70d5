"""Subsets of the Boolean hypercube and their symmetries.

A code is a nonempty set of n-bit words, stored as a sorted, duplicate-free,
read-only uint64 array.  Bit i of a word is coordinate i+1 of the corresponding
point of {-1,+1}^n under the convention bit=1 <-> +1.  The symmetry group of
the cube (coordinate permutations composed with coordinate flips) acts on
codes; for n <= MAX_CANONICAL_DIM = 6 a code, or a pair of codes jointly,
canonicalizes to a lexicographically minimal orbit representative.

Canonicalization uses a 64-bit key: word w of a code sets bit 2^n-1-w.  Among
codes of one size the smallest sorted word list has the largest key, so the
canonical form is the largest key over the orbit, and a canonical pair is the
lexicographic maximum of (key of a, key of b) under one group element.
"""

from __future__ import annotations

import array
import functools
import itertools
import operator
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionRangeError,
    EmptyCodeError,
    FormatError,
    ParameterRangeError,
    WordRangeError,
    as_integer,
)

MAX_DIM = 64
MAX_TRANSFORM_DIM = 24
MAX_CANONICAL_DIM = 6


class BinaryCode:
    """A nonempty subset of {0,1}^n, stored as a sorted, read-only uint64 array.

    ``BinaryCode(n, words)`` checks that the words are strictly increasing ints
    in range; the builders below hand their arrays to ``_code`` unchecked.
    """

    def __init__(self, n: int, words):
        n = as_integer("dimension", n, 1, MAX_DIM, DimensionRangeError)
        if len(words) == 0:
            raise EmptyCodeError("a code needs at least one word")
        # Three C-level passes accept a valid code; the loop below names the
        # first fault of any other.
        if not (
            set(map(type, words)) == {int}
            and all(map(operator.lt, words, itertools.islice(words, 1, None)))
            and words[0] >= 0
            and words[-1] < 1 << n
        ):
            limit, prev = 1 << n, -1
            for w in words:
                if not isinstance(w, int) or w < 0 or w >= limit:
                    raise WordRangeError(f"word {w} out of range for dimension {n}")
                if w <= prev:
                    raise WordRangeError("words must be strictly increasing")
                prev = w
        arr = np.array(words, dtype=np.uint64)
        arr.setflags(write=False)
        self.__dict__.update(n=n, _array=arr, _words=tuple(words))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def words(self) -> tuple[int, ...]:
        """The words as Python ints, built on first use."""
        if self._words is None:
            self.__dict__["_words"] = tuple(self._array.tolist())
        return self._words

    @property
    def size(self) -> int:
        return len(self._array)

    @property
    def density(self) -> float:
        """Fraction of the cube covered, |A| / 2^n."""
        return len(self._array) / (1 << self.n)

    def word_array(self) -> np.ndarray:
        """The stored words, sorted, as a read-only uint64 array (not a copy)."""
        return self._array

    def indicator(self) -> np.ndarray:
        """1 at each of the code's words and 0 at the rest of the 2^n, as int8."""
        table = np.zeros(1 << self.n, dtype=np.int8)
        table[self._array.view(np.int64)] = 1
        return table

    def __contains__(self, word) -> bool:
        i = int(self._array.searchsorted(word)) if 0 <= word < 1 << 64 else self.size
        return i < self.size and bool(self._array[i] == word)

    def __eq__(self, other):
        same = isinstance(other, BinaryCode) and self.n == other.n
        return same and np.array_equal(self._array, other._array)

    def __hash__(self):
        return hash((self.n, self._array.tobytes()))

    def __repr__(self):
        return f"BinaryCode(n={self.n!r}, words={self.words!r})"


def _code(n: int, arr: np.ndarray) -> BinaryCode:
    """A code of a sorted, duplicate-free uint64 array of words below 2^n."""
    arr.setflags(write=False)
    code = object.__new__(BinaryCode)
    code.__dict__.update(n=n, _array=arr, _words=None)
    return code


def make_code(n: int, words) -> BinaryCode:
    """Build a code from an iterable of words, each coerced with ``int``, sorted
    and deduplicated.  Non-int words, words outside [0, 2^64), non-integer arrays
    and faults go word by word through ``BinaryCode``'s check, naming the first."""
    n = as_integer("dimension", n, 1, MAX_DIM, DimensionRangeError)
    if not isinstance(words, (list, tuple, np.ndarray)):
        words = list(words)
    try:
        # array.array reads ints below 2^64 at C speed; an array keeps its dtype.
        arr = (np.array(words) if isinstance(words, np.ndarray)
               else np.frombuffer(array.array("Q", words), np.uint64))
    except (OverflowError, TypeError, ValueError):
        arr = None
    if arr is not None and arr.ndim == 1 and arr.size and arr.dtype.kind in "biu":
        arr.sort()
        if arr[0] >= 0 and int(arr[-1]) < 1 << n:
            arr = arr.view(np.uint64) if arr.itemsize == 8 else arr.astype(np.uint64)
            distinct = arr[1:] != arr[:-1]
            if not distinct.all():
                arr = arr[np.concatenate(([True], distinct))]
            return _code(n, arr)
    return BinaryCode(n, tuple(sorted(set(map(int, words)))))


def complement(code: BinaryCode) -> BinaryCode:
    """All words of the cube not in the code.  Errors if the code is the full cube."""
    if code.n > MAX_TRANSFORM_DIM:
        raise DimensionRangeError(
            f"dimension must be in 1..{MAX_TRANSFORM_DIM} for the complement, got {code.n}"
        )
    total = 1 << code.n
    if code.size == total:
        raise EmptyCodeError("complement of the full cube is empty")
    mask = np.ones(total, dtype=bool)
    mask[code.word_array().view(np.int64)] = False
    return _code(code.n, np.flatnonzero(mask).view(np.uint64))


def star(code: BinaryCode) -> BinaryCode:
    """Flip every coordinate of every word (antipodal image of the code)."""
    return _code(code.n, code.word_array()[::-1] ^ ((1 << code.n) - 1))


def subcube(n: int, k: int) -> BinaryCode:
    """The 2^(n-k) words whose first k coordinates are all 1."""
    n = as_integer("dimension", n, 1, MAX_DIM, DimensionRangeError)
    k = as_integer("pinned-coordinate count", k, 0, n)
    return _code(n, np.arange(1 << (n - k), dtype=np.uint64) << k | (1 << k) - 1)


def hamming_ball(n: int, center: int, radius: int) -> BinaryCode:
    """All words within the given Hamming distance of the center word."""
    n = as_integer("ball dimension", n, 1, MAX_TRANSFORM_DIM, DimensionRangeError)
    center = as_integer("center", center, 0, (1 << n) - 1, WordRangeError)
    radius = as_integer("radius", radius, 0, n)
    dist = np.bitwise_count(np.arange(1 << n, dtype=np.int64) ^ center)
    return _code(n, np.flatnonzero(dist <= radius).view(np.uint64))


@dataclass(frozen=True)
class CubeSymmetry:
    """A hypercube symmetry: permute coordinates, then flip a subset of them.

    ``perm[i]`` is the position that bit i is sent to; ``flips`` is XORed into
    the permuted word.
    """

    perm: tuple[int, ...]
    flips: int

    def __post_init__(self):
        n = as_integer("permutation length", len(self.perm), 1, MAX_DIM, DimensionRangeError)
        perm = tuple(as_integer("permutation entry", p, 0, n - 1) for p in self.perm)
        if sorted(perm) != list(range(n)):
            raise ParameterRangeError(f"{self.perm} is not a permutation of 0..{n - 1}")
        flips = as_integer("flip mask", self.flips, 0, (1 << n) - 1, WordRangeError)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "flips", flips)

    @property
    def n(self) -> int:
        return len(self.perm)

    def apply(self, word: int) -> int:
        out = 0
        for i, p in enumerate(self.perm):
            out |= ((word >> i) & 1) << p
        return out ^ self.flips


def apply_symmetry(g: CubeSymmetry, code: BinaryCode) -> BinaryCode:
    if g.n != code.n:
        raise DimensionMismatchError(f"symmetry on {g.n} bits applied to {code.n}-bit code")
    words = code.word_array()
    images = sum(((words >> i) & 1) << p for i, p in enumerate(g.perm)) ^ g.flips
    return _code(code.n, np.sort(images))


def symmetry_group(n: int) -> tuple[CubeSymmetry, ...]:
    """Every coordinate-permutation-and-flip symmetry, n! * 2^n elements."""
    return _group_elements(as_integer("dimension", n, 1, MAX_CANONICAL_DIM, DimensionRangeError))


@functools.lru_cache(maxsize=None)
def _group_elements(n: int) -> tuple[CubeSymmetry, ...]:
    out = []
    for perm in itertools.permutations(range(n)):
        for flips in range(1 << n):
            out.append(CubeSymmetry(perm, flips))
    return tuple(out)


def _key_bits(n: int, words: np.ndarray) -> np.ndarray:
    """Key bit of each word w: bit 2^n-1-w.  A code's key is the sum over its words."""
    return np.uint64(1) << ((1 << n) - 1 - words).astype(np.uint64)


@functools.lru_cache(maxsize=None)
def _perm_key_table(n: int) -> np.ndarray:
    """Row p, column w: the key bit of word w's image under the p-th
    coordinate permutation (n! x 2^n, 0.4 MB at n=6)."""
    bits = (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    images = (bits[None] << perms[:, None]).sum(axis=2)
    return _key_bits(n, images)


# Flipping coordinate j XORs each key bit index with 2^j: the bits whose index
# has bit j clear (the mask) swap with the bits 2^j above them.
_FLIPS = tuple(
    (np.uint64(1 << j), np.uint64(sum(1 << i for i in range(64) if not i >> j & 1)))
    for j in range(MAX_CANONICAL_DIM)
)


def _orbit_keys(n: int, *word_arrays: np.ndarray) -> np.ndarray:
    """Row i: the key of the i-th code's image under every group element,
    column g being the same element in every row.  The codes are the rows of
    each 2-D array in turn."""
    table = _perm_key_table(n)
    keys = np.concatenate([table[:, words.view(np.int64)].sum(axis=2).T for words in word_arrays])
    for shift, mask in _FLIPS[:n]:
        flipped = ((keys & mask) << shift) | ((keys >> shift) & mask)
        keys = np.concatenate([keys, flipped], axis=1)
    return keys


def _key_code(n: int, key) -> BinaryCode:
    """The code of a key: word w is in it when key bit 2^n-1-w is set."""
    shifts = np.arange((1 << n) - 1, -1, -1, dtype=np.uint64)
    return _code(n, np.flatnonzero((np.uint64(key) >> shifts) & 1).view(np.uint64))


def canonical_form(code: BinaryCode) -> BinaryCode:
    """Lexicographically smallest sorted word list over the code's orbit: the
    code of the orbit's largest key (bit 2^n-1-w set for each word w)."""
    as_integer("dimension", code.n, 1, MAX_CANONICAL_DIM, DimensionRangeError)
    return _key_code(code.n, _orbit_keys(code.n, code.word_array()[None]).max())


def canonical_pair(a: BinaryCode, b: BinaryCode) -> tuple[BinaryCode, BinaryCode]:
    """Apply one common symmetry to both codes, minimizing the joint word lists.

    The same group element transforms both codes, so pairwise distances (and
    any statistic built on them) are preserved.  a's word list is minimized
    first, then b's: the lexicographic maximum of (key of a, key of b).
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"pair dimensions differ: {a.n} vs {b.n}")
    as_integer("dimension", a.n, 1, MAX_CANONICAL_DIM, DimensionRangeError)
    ka, kb = _orbit_keys(a.n, a.word_array()[None], b.word_array()[None])
    return _key_code(a.n, ka.max()), _key_code(b.n, kb[ka == ka.max()].max())


def format_code(code: BinaryCode) -> str:
    """Serialize: a ``n=<dim>`` header, then one word per line, 0/1 characters
    with the most significant coordinate first."""
    return "\n".join([f"n={code.n}", *[bin(w)[2:].zfill(code.n) for w in code.words], ""])


def parse_code(text: str) -> BinaryCode:
    """Inverse of :func:`format_code`.  Raises FormatError on malformed input."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("n="):
        raise FormatError("missing 'n=<dim>' header line")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise FormatError(f"bad dimension in header: {lines[0]!r}") from exc
    n = as_integer("dimension", n, 1, MAX_DIM, DimensionRangeError)
    words = []
    for ln in lines[1:]:
        if len(ln) != n:
            raise FormatError(f"word line {ln!r} is not {n} characters")
        if any(c not in "01" for c in ln):
            raise FormatError(f"word line {ln!r} contains characters other than 0/1")
        words.append(int(ln, 2))
    return make_code(n, words)
