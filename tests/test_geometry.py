from __future__ import annotations

import random
from fractions import Fraction

import pytest

from charnum.geometry import GeometryError, builtin_geometry, load_geometry
from charnum.oracles import schubert_gr24_cup_table

BUILTINS = ("p1", "p2", "p3", "p4", "p1xp1", "gr24")


def test_p2_cup_table():
    p2 = builtin_geometry("p2")
    assert p2.cup_table[1][1] == (0, 0, 1)  # h.h = h^2
    assert p2.cup_table[1][2] == (0, 0, 0)  # degree overflow
    assert p2.cup_table[0][2] == (0, 0, 1)


def test_gr24_cup_matches_schubert_oracle():
    g = builtin_geometry("gr24")
    oracle = schubert_gr24_cup_table()
    for i in range(6):
        for j in range(6):
            assert tuple(g.cup_table[i][j]) == tuple(map(Fraction, oracle[(i, j)])), (i, j)
    assert g.cup_table[1][1] == (0, 0, 1, 1, 0, 0)  # s1^2 = s2 + s11


def test_vdim_examples():
    p2 = builtin_geometry("p2")
    assert p2.vdim(0, (1,), 2) == 4
    assert p2.vdim(1, (3,), 9) == 18
    q = builtin_geometry("p1xp1")
    assert q.vdim(0, (1, 1), 3) == 6


@pytest.mark.parametrize("name", BUILTINS)
def test_pairing_inverse_exact(name):
    g = builtin_geometry(name)
    n = g.rank
    for i in range(n):
        for k in range(n):
            s = sum(g.pairing_inv[i][j] * g.pairing[j][k] for j in range(n))
            assert s == (1 if i == k else 0)


@pytest.mark.parametrize("name", BUILTINS)
def test_triple_product_totally_symmetric(name):
    g = builtin_geometry(name)
    n = g.rank
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t = g.integral(g.cup_classes((i, j, k)))
                for perm in ((j, i, k), (k, j, i), (i, k, j)):
                    assert g.integral(g.cup_classes(perm)) == t, (i, j, k)


@pytest.mark.parametrize("name", BUILTINS)
def test_vdim_random_hand_check(name):
    g = builtin_geometry(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(10):
        genus = rng.randint(0, 2)
        n = rng.randint(0, 7)
        beta = tuple(rng.randint(0, 4) for _ in g.divisors)
        by_hand = (g.dim - 3) * (1 - genus) + sum(
            int(c) * d for c, d in zip(g.c1, beta)
        ) + n
        assert g.vdim(genus, beta, n) == by_hand


def test_builtin_roundtrip_through_config():
    for name in BUILTINS:
        g = builtin_geometry(name)
        loaded = load_geometry(g.to_text())
        assert loaded == g


def test_singular_pairing_rejected():
    g = builtin_geometry("p2")
    text = g.to_text().replace("pairing\n0 0 1\n0 1 0\n1 0 0", "pairing\n0 0 1\n0 0 0\n1 0 0")
    with pytest.raises(GeometryError, match="singular|symmetric"):
        load_geometry(text)


def test_nonassociative_cup_rejected():
    g = builtin_geometry("p2")
    text = g.to_text().replace("cup 1 1 = 0 0 1", "cup 1 1 = 0 1 0")
    with pytest.raises(GeometryError):
        load_geometry(text)


RING_FAULTS = {
    # degrees still add up; (T1 T1) T3 = T5 but T1 (T1 T3) = 2 T5
    "nonassociative": ("gr24", "cup 1 3 = 0 0 0 0 1 0", "cup 1 3 = 0 0 0 0 2 0", "cup not associative at (1, 1, 3)"),
    # symmetric and nonsingular, but g_12 = 2 where \int T1 T2 = 1
    "pairing off the cup": (
        "p1xp1", "pairing\n0 0 0 1\n0 0 1 0\n0 1 0 0\n", "pairing\n0 0 0 1\n0 0 2 0\n0 2 0 0\n",
        "pairing disagrees with cup at (1, 2)",
    ),
}


@pytest.mark.parametrize("case", RING_FAULTS)
def test_ring_check_names_where_the_ring_fails(case):
    name, old, new, message = RING_FAULTS[case]
    text = builtin_geometry(name).to_text()
    assert old in text
    with pytest.raises(GeometryError) as e:
        load_geometry(text.replace(old, new))
    assert str(e.value) == message


def test_integral_off_top_degree_rejected():
    # consistent with the ring and nonsingular, but \int T0 = \int T1 = 1
    g = builtin_geometry("p2")
    text = g.to_text().replace("pairing\n0 0 1\n0 1 0\n1 0 0", "pairing\n1 1 1\n1 1 0\n1 0 0")
    with pytest.raises(GeometryError, match="off degree 2 dim"):
        load_geometry(text)


BAD_CONFIGS = {
    "cup index outside the ring": ("p1", "", "cup 1 5 = 0 0\n", 13),
    "stray cup coefficient": ("p2", "cup 1 1 = 0 0 1", "cup 1 1 = 0 0 1 7", 13),
    "cup index not an integer": ("p2", "cup 1 1 = 0 0 1", "cup 1 x = 0 0 1", 13),
    "short pairing row": ("p2", "\n0 1 0\n", "\n0 1\n", 11),
    "divisor index outside the ring": ("p2", "divisors 1", "divisors 5", 5),
    "c1 entry missing": ("p1xp1", "c1 2 2", "c1 2", 6),
}


@pytest.mark.parametrize("case", BAD_CONFIGS)
def test_bad_config_record_names_its_line(case, tmp_path, capsys):
    from charnum import cli

    name, old, new, line = BAD_CONFIGS[case]
    text = builtin_geometry(name).to_text()
    path = tmp_path / "bad.geom"
    path.write_text(text.replace(old, new) if old else text + new)
    assert cli.run(["metric", "--target", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1


def test_p1xp1_kunneth_ring():
    q = builtin_geometry("p1xp1")
    assert q.cup_table[1][2] == (0, 0, 0, 1)
    assert q.cup_table[1][1] == (0, 0, 0, 0)
    assert q.cup_table[2][2] == (0, 0, 0, 0)


def test_curve_class_enumeration():
    q = builtin_geometry("p1xp1")
    assert list(q.curve_classes(2)) == [(0, 2), (1, 1), (2, 0)]
    p2 = builtin_geometry("p2")
    assert list(p2.curve_classes(3)) == [(3,)]


def test_gr24_chern_data_from_splitting_principle():
    r"""Re-derive the shipped Euler number and \int s1 c(T) via the tangent
    bundle Hom(S,Q): Chern roots a_i + b_j with e(a) = (s1, s11) and
    e(b) = (s1, s2).  Gauss-Bonnet (\int c4 = chi = number of Schubert
    cells) pins the expansion."""
    from charnum.oracles import GR24_PARTITIONS, schubert_gr24_product

    idx = {p: i for i, p in enumerate(GR24_PARTITIONS)}

    def mult_poly(p, q):
        out = {}
        for lam, c1 in p.items():
            for mu, c2 in q.items():
                for nu, c3 in schubert_gr24_product(lam, mu).items():
                    out[nu] = out.get(nu, Fraction(0)) + c1 * c2 * c3
        return {k: v for k, v in out.items() if v}

    def word(powers):  # (p, q, r, t) exponents with p = r = s1, q = s11, t = s2
        out = {(0, 0): Fraction(1)}
        for lam, e in zip(((1, 0), (1, 1), (1, 0), (2, 0)), powers):
            for _ in range(e):
                out = mult_poly(out, {lam: 1})
        return out

    # bisymmetric expansions of e_k(a1+b1, a1+b2, a2+b1, a2+b2)
    c3_terms = {(2, 0, 1, 0): 1, (1, 1, 0, 0): 2, (1, 0, 2, 0): 1, (1, 0, 0, 1): 2,
                (0, 1, 1, 0): 2, (0, 0, 1, 1): 2}
    c4_terms = {(2, 0, 0, 1): 1, (1, 1, 1, 0): 1, (1, 0, 1, 1): 1, (0, 2, 0, 0): 1,
                (0, 1, 2, 0): 1, (0, 1, 0, 1): -2, (0, 0, 0, 2): 1}
    c3 = {}
    for powers, coef in c3_terms.items():
        for k, v in word(powers).items():
            c3[k] = c3.get(k, Fraction(0)) + coef * v
    c4 = {}
    for powers, coef in c4_terms.items():
        for k, v in word(powers).items():
            c4[k] = c4.get(k, Fraction(0)) + coef * v
    g = builtin_geometry("gr24")
    assert c4.get((2, 2)) == g.euler == 6
    s1c3 = mult_poly({(1, 0): 1}, {k: v for k, v in c3.items() if v})
    assert s1c3.get((2, 2)) == g.chern_divisor[0] == 12


def test_chern_divisor_projective_spaces():
    # \int h cup c(T) on P^r: coefficient of h^{r-1} in (1+h)^{r+1}
    from math import comb

    for r in range(1, 7):
        g = builtin_geometry(f"p{r}")
        assert g.chern_divisor[0] == comb(r + 1, r - 1)
    assert builtin_geometry("p2").chern_divisor[0] == 3
    assert builtin_geometry("p3").chern_divisor[0] == 6
