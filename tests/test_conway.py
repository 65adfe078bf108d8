"""The shipped modulus table: published anchors, search regression,
invariant validation, and the load/override machinery."""

import pytest

from sl2bar import conway
from sl2bar.conway import (
    ConwayTable,
    N_MAX,
    format_table,
    load_table,
    norm_compatible,
    parse_table_text,
    search_conway,
    validate_table,
)
from sl2bar.errors import ParseError, TableInvalid
from sl2bar.gf2poly import divisors, is_irreducible, is_primitive

# Published values for degrees 1..8.
KNOWN = [0x3, 0x7, 0xB, 0x13, 0x25, 0x5B, 0x83, 0x11D]


def test_shipped_matches_published_low_degrees():
    table = conway.get_active()
    for n, expect in enumerate(KNOWN, start=1):
        assert table.poly(n) == expect


def test_search_reproduces_shipped_table():
    # The defining smallest-mask search, rerun independently of the file.
    table = conway.get_active()
    found = {}
    for n in range(1, 13):
        found[n] = search_conway(n, found)
        assert found[n] == table.poly(n), f"level {n}"


def test_every_entry_irreducible_primitive_compatible():
    table = conway.get_active()
    assert table.max_level == N_MAX
    validate_table(table)
    for n in range(1, N_MAX + 1):
        assert is_irreducible(table.poly(n))
        assert is_primitive(table.poly(n))
        for m in divisors(n):
            assert norm_compatible(table, m, n)


def test_validate_rejects_bad_entries():
    good = conway.get_active()
    bad = ConwayTable((0x3, 0x7, 0xD) + good.polys[3:])  # x^3+x^2+1 breaks compatibility
    with pytest.raises(ValueError):
        validate_table(bad)
    with pytest.raises(ValueError):
        validate_table(ConwayTable((0x3, 0x5)))  # x^2+1 = (x+1)^2 is reducible


def test_negative_masks_are_rejected_before_any_polynomial_test():
    with pytest.raises(ParseError, match="<table>:2"):
        parse_table_text("1:3\n2:-7\n")
    with pytest.raises(ParseError, match="<table>:1"):
        parse_table_text("1:+3\n")
    with pytest.raises(TableInvalid):
        validate_table(ConwayTable((0x3, -0x7)))
    with pytest.raises(TableInvalid):
        validate_table(ConwayTable((-0x3,)))


def test_parse_and_format_round_trip():
    table = conway.get_active()
    assert parse_table_text(format_table(table)).polys == table.polys
    with pytest.raises(ParseError):
        parse_table_text("garbage")
    with pytest.raises(ParseError):
        parse_table_text("1:3\n3:B\n")  # gap at level 2
    with pytest.raises(ParseError):
        parse_table_text("")


def test_load_from_explicit_path_and_env(tmp_path, monkeypatch):
    table = conway.get_active()
    short = ConwayTable(table.polys[:6])
    path = tmp_path / "table.txt"
    path.write_text(format_table(short), encoding="ascii")

    loaded = load_table(str(path))
    assert loaded.polys == short.polys

    monkeypatch.setenv(conway.ENV_TABLE_PATH, str(path))
    assert load_table().polys == short.polys
    # an explicit path wins over the environment
    other = tmp_path / "other.txt"
    other.write_text(format_table(ConwayTable(table.polys[:4])), encoding="ascii")
    assert load_table(str(other)).max_level == 4
