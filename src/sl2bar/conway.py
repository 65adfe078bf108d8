"""The compatible modulus table for the tower of binary fields.

Each level n in 1..N_MAX gets one Conway polynomial: the primitive
irreducible polynomial of degree n over the 2-element field whose mask is
smallest, subject to norm compatibility with the polynomials already fixed
at every proper divisor level.  Norm compatibility means that raising a
root of the level-n entry to the power (2^n - 1)/(2^m - 1) yields a root
of the level-m entry whenever m divides n; it is what makes the
generator-to-power subfield embeddings of the tower mutually consistent.

The table ships as a text data file (one ``n:HEX`` line per level) and is
validated, not trusted, when loaded: every entry is checked irreducible,
primitive, and norm compatible with its maximal divisor levels.  A
different file can be supplied via ``set_active_path`` (the CLI exposes
``--conway-file`` and the SL2BAR_CONWAY_PATH environment variable).
"""

from __future__ import annotations

import os

from .errors import BoundExceeded, ParseError, SearchFailed, TableInvalid
from .gf2poly import (
    degree,
    factorize,
    is_irreducible,
    is_primitive,
    peval,
    ppowmod,
    x_generates,
)
from .record import Record, _set

N_MAX = 30

ENV_TABLE_PATH = "SL2BAR_CONWAY_PATH"
_DATA_RESOURCE = "conway_gf2.txt"


class ConwayTable(Record):
    """Modulus masks for levels 1..max_level, entry n at index n-1."""

    __slots__ = ("polys",)

    def __init__(self, polys: tuple[int, ...]):
        _set(self, "polys", polys)

    @property
    def max_level(self) -> int:
        return len(self.polys)

    def poly(self, n: int) -> int:
        if not 1 <= n <= self.max_level:
            raise BoundExceeded(f"no modulus for level {n} (table covers 1..{self.max_level})")
        return self.polys[n - 1]


def norm_compatible(table: ConwayTable, m: int, n: int) -> bool:
    """Check the embedding compatibility of levels m | n within the table."""
    if n % m != 0:
        raise ValueError(f"{m} does not divide {n}")
    if m == n:
        return True
    e = ((1 << n) - 1) // ((1 << m) - 1)
    f = table.poly(n)
    return peval(table.poly(m), ppowmod(0b10, e, f), f) == 0


def validate_table(table: ConwayTable) -> None:
    """Raise TableInvalid unless every entry is irreducible, primitive, and
    norm compatible with its maximal proper divisor levels."""
    for n in range(1, table.max_level + 1):
        f = table.poly(n)
        if f < 1:
            raise TableInvalid(f"level {n} entry {f:#x} is not a positive mask")
        if degree(f) != n:
            raise TableInvalid(f"level {n} entry has degree {degree(f)}")
        if not is_irreducible(f):
            raise TableInvalid(f"level {n} entry {f:#x} is not irreducible")
        if not x_generates(f):
            raise TableInvalid(f"level {n} entry {f:#x} is not primitive")
        for q in factorize(n):
            if not norm_compatible(table, n // q, n):
                raise TableInvalid(f"levels {n // q} | {n} are not norm compatible")


def search_conway(n: int, lower: dict[int, int]) -> int:
    """Smallest-mask primitive degree-n polynomial norm compatible with the
    entries in `lower` at the maximal proper divisor levels of n.

    This is the defining computation for the shipped table; it is rerun by
    the tests at small degrees as an independent cross-check.
    """
    if n == 1:
        return 0b11  # x + 1, the only primitive linear polynomial
    maximal = [(n // q, lower[n // q]) for q in factorize(n)]
    exps = [((1 << n) - 1) // ((1 << m) - 1) for m, _ in maximal]
    for interior in range(1 << (n - 1)):
        f = (1 << n) | (interior << 1) | 1
        if f.bit_count() % 2 == 0:
            continue  # f(1) = 0, so x+1 divides f
        if not is_primitive(f):
            continue
        if all(peval(fm, ppowmod(0b10, e, f), f) == 0 for (_, fm), e in zip(maximal, exps)):
            return f
    raise SearchFailed(f"no compatible primitive polynomial of degree {n}")


def parse_table_text(text: str, source: str = "<table>") -> ConwayTable:
    entries: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            left, right = line.split(":")
            n = int(left)
            mask = int(right, 16)
        except ValueError:
            raise ParseError(f"{source}:{lineno}: bad table line {line!r}") from None
        if n < 1 or n in entries:
            raise ParseError(f"{source}:{lineno}: bad or duplicate level {n}")
        if right.strip().startswith(("+", "-")):
            raise ParseError(f"{source}:{lineno}: signed modulus mask {right.strip()!r}")
        entries[n] = mask
    if not entries:
        raise ParseError(f"{source}: empty table")
    top = max(entries)
    if sorted(entries) != list(range(1, top + 1)):
        raise ParseError(f"{source}: levels are not contiguous from 1")
    return ConwayTable(tuple(entries[n] for n in range(1, top + 1)))


def format_table(table: ConwayTable) -> str:
    return "".join(f"{n}:{table.poly(n):X}\n" for n in range(1, table.max_level + 1))


def load_table(path: str | None = None) -> ConwayTable:
    """Load and validate a table from `path`, the SL2BAR_CONWAY_PATH file,
    or the packaged data file, in that order of preference."""
    if path is None:
        path = os.environ.get(ENV_TABLE_PATH) or None
    if path is not None:
        try:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read modulus table {path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ParseError(f"modulus table {path} is not ASCII text") from None
        table = parse_table_text(text, source=path)
    else:
        with open(os.path.join(os.path.dirname(__file__), "data", _DATA_RESOURCE), encoding="ascii") as fh:
            text = fh.read()
        table = parse_table_text(text, source=_DATA_RESOURCE)
    validate_table(table)
    return table


_active: ConwayTable | None = None
_active_path: str | None = None
_invalidation_hooks: list = []


def register_invalidation_hook(fn) -> None:
    """Register a callback run whenever the active table changes; the
    arithmetic layers use this to drop per-level caches."""
    _invalidation_hooks.append(fn)


def set_active_path(path: str | None) -> None:
    """Select the table file used by all subsequent field arithmetic.

    Intended for process startup (the CLI calls it once); elements built
    under the previous table are meaningless under the new one.
    """
    global _active, _active_path
    _active_path = path
    _active = None
    for fn in _invalidation_hooks:
        fn()


def get_active() -> ConwayTable:
    global _active
    if _active is None:
        _active = load_table(_active_path)
    return _active
