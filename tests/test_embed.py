"""The canonical subfield embedding on element codes (``embed.subfield_codes``)
and the Taylor shift that carries a polynomial through it."""

import pytest

from katoforge import ConfigMismatch, Poly, gf
from katoforge.embed import least_root, subfield_codes

PAIRS = [((2, 1), (2, 3)), ((3, 1), (3, 2)), ((2, 2), (2, 4)),
         ((2, 2), (2, 6)),
         ((2, 3), (2, 9)),      # GF(512): computed tables, not stored
         ((3, 2), (3, 2))]


@pytest.mark.parametrize("small,big", PAIRS, ids=lambda pe: "GF(%d^%d)" % pe)
def test_subfield_codes_is_the_canonical_embedding(small, big):
    S, B = gf(*small), gf(*big)
    lift, drop = subfield_codes(S, B)
    (sadd, smul, _, _), (badd, bmul, _, _) = S.tables, B.tables
    codes = range(S.order)
    for a in codes:
        for b in codes:
            assert lift[sadd[a][b]] == badd[lift[a]][lift[b]]
            assert lift[smul[a][b]] == bmul[lift[a]][lift[b]]
    if S is B or S.e == 1:   # the identity, and the prime field's codes
        assert lift == list(codes)
    else:
        root = least_root(Poly._from_codes(B, list(S.modulus)))
        assert lift[S.gen.idx] == root.idx
    assert all(drop[lift[c]] == c for c in codes)
    assert sum(c not in drop for c in range(B.order)) == B.order - S.order


@pytest.mark.parametrize("small,big", [((2, 2), (2, 3)), ((2, 1), (3, 2))])
def test_subfield_codes_refuses_a_field_that_is_no_extension(small, big):
    with pytest.raises(ConfigMismatch):
        subfield_codes(gf(*small), gf(*big))


def test_shift_through_the_embedding():
    """f(theta + pi) for f over GF(2) and theta in GF(8) is the shift of f
    with its coefficients lifted; without ``lift`` the fields must agree."""
    S, B = gf(2), gf(2, 3)
    lift, _ = subfield_codes(S, B)
    f = Poly._from_codes(S, [1, 1, 0, 1])
    theta = B.from_code(5)
    lifted = Poly._from_codes(B, [lift[c] for c in f._codes])
    assert f.shift(theta, lift) == lifted.shift(theta)
    assert lifted.shift(theta).field is B
    with pytest.raises(ConfigMismatch):
        f.shift(theta)
