"""One map type, `ChainMap`, and the values the tables store.

A `ChainMap` has a degree: where no value is given, one of nonzero degree
(a homotopy) is zero, and one of degree 0 maps the unit to the unit and has
no other value.  `Multiplication.product` reads a product of two basis
elements and refuses a name outside the basis as `set_product` does."""

import pytest

from mdgkit import fixture_path, load_fixture
from mdgkit.cli import run_command
from mdgkit.complexes import UNIT
from mdgkit.mdg import ChainMap, MDGError


@pytest.fixture(scope="module")
def fk():
    return load_fixture("fk").algebra()


def test_a_map_of_degree_one_is_zero_where_unset(fk):
    cx = fk.complex
    h = ChainMap(cx, cx, degree=1)
    h.set_image("e1", cx.elem("e12"))
    assert h.image("e1") == cx.elem("e12")
    for name in (UNIT, "e2", "e12"):
        assert h.image(name).is_zero()
    assert h.apply(cx.elem("e1") + cx.elem("e2")) == cx.elem("e12")


def test_a_map_of_degree_zero_names_its_missing_value(fk):
    cx = fk.complex
    phi = ChainMap(cx, cx, "phi")
    assert phi.degree == 0
    assert phi.image(UNIT) == cx.one
    phi.set_image("e1", cx.elem("e2"))
    assert phi.image("e1") == cx.elem("e2")
    with pytest.raises(MDGError, match="map phi has no value on 'e2'"):
        phi.image("e2")
    with pytest.raises(MDGError, match="unknown source basis element 'zz'"):
        phi.set_image("zz", cx.one)


def _identity(cx):
    phi = ChainMap(cx, cx, "id")
    for name in cx.order:
        phi.set_image(name, cx.elem(name))
    return phi


@pytest.mark.parametrize("degree", [0, 2, -1])
def test_only_a_map_of_degree_one_is_a_homotopy(fk, degree):
    # the zero map is a homotopy from the identity to itself, at degree 1
    cx = fk.complex
    ident = _identity(cx)
    assert ChainMap(cx, cx, degree=1).is_homotopy_between(ident, ident)
    zero = ChainMap(cx, cx, degree=degree)
    for name in cx.order:
        zero.set_image(name, cx.zero)
    assert not zero.is_homotopy_between(ident, ident)


def test_compose_adds_the_degrees(fk):
    cx = fk.complex
    ident = _identity(cx)
    h = ChainMap(cx, cx, "h", degree=1)
    h.set_image("e1", cx.elem("e12"))
    after = h.compose(ident)
    assert (after.name, after.degree) == ("h.id", 1)
    assert after.image("e1") == cx.elem("e12")
    assert after.image("e2").is_zero()
    assert h.compose(h).degree == 2
    assert ident.compose(ident).degree == 0


@pytest.mark.parametrize("left, right", [
    ("e1", "zz"), ("zz", "e1"), ("zz", "zz"), (UNIT, "zz"), ("zz", UNIT)])
def test_a_product_with_an_unknown_name_is_an_mdg_error(fk, left, right):
    with pytest.raises(MDGError, match="unknown basis element in product "
                       f"{left} \\* {right}"):
        fk.mult.product(left, right)


@pytest.mark.parametrize("triple", ["e1,e5,zz", "zz,e1,e2", "e1,zz,e2"])
def test_an_unknown_name_in_a_triple_exits_2(capsys, triple):
    code = run_command(["assoc", str(fixture_path("fk")), "--triple",
                        triple])
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == (
        "", "error: unknown basis element 'zz'\n")
