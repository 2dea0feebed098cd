"""Group words over opaque generator labels.

A word is written as juxtaposed labels separated by whitespace, with a
trailing apostrophe for an inverse: ``a b a'`` denotes a b a^{-1}.
Internally a word is a tuple of (label, exponent sign) letters, freely
reduced.  The empty word is the identity.
"""

from __future__ import annotations

import functools
import re

from .errors import WordError

Letter = tuple[str, int]
Word = tuple[Letter, ...]

_LETTER = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)('?)")


def reduce_word(letters) -> Word:
    out: list[Letter] = []
    for label, sign in letters:
        if out and out[-1][0] == label and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((label, sign))
    return tuple(out)


def parse_word(text, allow_identity: bool = False) -> Word:
    """Parse ``a b a'`` style notation into a reduced word; a tuple of
    letters is reduced."""
    word = reduce_word(text) if isinstance(text, tuple) else _parse_text(text)
    if not word and not allow_identity:
        raise WordError(f"word {text!r} reduces to the identity")
    return word


@functools.lru_cache(maxsize=1024)
def _parse_text(text: str) -> Word:
    """The reduced word of a text, parsed once per text while it is among
    the 1024 most recently parsed; a refused text is not kept."""
    letters: list[Letter] = []
    pos = 0
    s = text.strip()
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        m = _LETTER.match(s, pos)
        if not m:
            raise WordError(f"bad word syntax at {s[pos:]!r}")
        letters.append((m.group(1), -1 if m.group(2) else 1))
        pos = m.end()
    return reduce_word(letters)


def invert_word(word: Word) -> Word:
    return tuple((label, -sign) for label, sign in reversed(word))


def conjugate_word(outer: Word, inner: Word) -> Word:
    """outer . inner . outer^{-1}, freely reduced."""
    return reduce_word(outer + inner + invert_word(outer))


def word_text(word: Word) -> str:
    return " ".join(label + ("'" if sign < 0 else "") for label, sign in word)


def cyclic_root(word: Word) -> tuple[Word, int]:
    """Shortest word whose positive power equals the given reduced word."""
    n = len(word)
    for k in range(1, n + 1):
        if n % k == 0 and word == word[:k] * (n // k):
            return word[:k], n // k
    return word, 1


def _class_key(word: Word):
    # positive letters sort before their inverses, so plain generators win
    return tuple((label, -sign) for label, sign in word)


def canonical_class(word: Word, sign: int) -> tuple[Word, int]:
    """Canonical (root, sign) naming a fixed point.

    Powers of a word share its fixed points and inverting the word swaps
    them, so every fixed point has a unique representative whose root is
    the smaller of the primitive root and its inverse (positive letters
    preferred).
    """
    root, _ = cyclic_root(word)
    inverse = invert_word(root)
    if _class_key(inverse) < _class_key(root):
        return inverse, -sign
    return root, sign
