"""The associator subcomplex: closure under d and under the module action,
and the diagnosable limit on saturation rounds."""

import pytest

from mdgkit import load_fixture, mdg
from mdgkit.mdg import MDGError, Submodule

ALGEBRAS = {name: load_fixture(name).algebra() for name in ("fk", "fm", "fa")}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_associator_submodule_is_closed(name):
    assert ALGEBRAS[name].associator_submodule().verify_closed() == []


def test_an_unsaturated_submodule_reports_what_escapes():
    fk = ALGEBRAS["fk"]
    sub = Submodule(fk, [("[e1,e2,e5]", fk.associator_names("e1", "e2", "e5"))])
    assert "e1*[e1,e2,e5] escapes the submodule" in sub.verify_closed()


def test_saturation_round_limit_is_diagnosable(monkeypatch):
    fm = ALGEBRAS["fm"]
    label, v, _, _ = fm.associator_submodule().gens[0]
    monkeypatch.setattr(mdg, "SATURATION_ROUNDS", 1)
    sub = Submodule(fm, [(label, v)])
    with pytest.raises(MDGError, match="round limit of 1: 7 generators reached"):
        sub.saturate()
