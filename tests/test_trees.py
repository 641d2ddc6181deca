import pytest
from hypothesis import given, strategies as st

from gfsb.errors import PreconditionViolated, UnitSymbol
from gfsb.trees import (
    CoefficientMap,
    RegularityParams,
    GENERATOR_KEY,
    UNIT_KEY,
    generate_regular_subset,
    parse_symbol,
    product,
    regular_set,
    regularity,
    verify_regularity_floor,
)

P = RegularityParams(alpha=-0.2, b=0.5)


def sym(key):
    return parse_symbol(key)


# ---------------------------------------------------------------- symbols


def test_unit_is_neutral():
    n = sym(GENERATOR_KEY)
    assert product(sym(UNIT_KEY), n) is n
    assert product(n, sym(UNIT_KEY)) is n
    assert (sym(UNIT_KEY) * sym("lr")).canonical_key == "lr"


def test_named_keys():
    n = sym(GENERATOR_KEY)
    assert n.canonical_key == "n"
    assert (n * n).canonical_key == "lr"
    assert ((n * n) * n).canonical_key == "rLlr"
    assert (n * (n * n)).canonical_key == "rLlr"


def test_structural_keys_sorted():
    lr = sym("lr")
    assert (lr * lr).canonical_key == "(lr*lr)"
    r = sym("rLlr")
    # four leaves, orientation-independent
    n = sym(GENERATOR_KEY)
    assert (r * n).canonical_key == (n * r).canonical_key


def test_parse_roundtrip():
    for key in ["n", "lr", "rLlr", "(lr*lr)", "(rLlr*n)", "((lr*lr)*lr)"]:
        assert parse_symbol(key).canonical_key == key


# ---------------------------------------------------------------- regularity


def test_regularity_base_case():
    assert regularity(sym(GENERATOR_KEY), P) == pytest.approx(-0.2)


def test_regularity_two_leaves():
    # min(a, a, 2a) + b = 2a + b
    assert regularity(sym("lr"), P) == pytest.approx(0.1)


def test_regularity_three_leaves():
    # min(r(lr), a, r(lr)+a) + b = a + b
    assert regularity(sym("rLlr"), P) == pytest.approx(0.3)


def test_regularity_unit_raises():
    with pytest.raises(UnitSymbol):
        regularity(sym(UNIT_KEY), P)


def test_params_flags():
    assert P.gains_regularity and P.subcritical
    q = RegularityParams(alpha=-0.3, b=0.5)
    assert q.gains_regularity and not q.subcritical
    with pytest.raises(ValueError):
        RegularityParams(alpha=-0.2, b=0.0)


# ---------------------------------------------------------------- enumeration


def wedderburn_etherington(n_max):
    """Independent count of commutative binary trees by leaf count."""
    a = {1: 1}
    for n in range(2, n_max + 1):
        total = sum(a[i] * a[n - i] for i in range(1, (n - 1) // 2 + 1))
        if n % 2 == 0:
            h = a[n // 2]
            total += h * (h + 1) // 2
        a[n] = total
    return a


def test_generate_small():
    keys2 = [s.canonical_key for s in generate_regular_subset(2)]
    assert keys2 == ["n", "lr"]
    keys3 = [s.canonical_key for s in generate_regular_subset(3)]
    assert keys3 == ["n", "lr", "rLlr"]
    keys4 = [s.canonical_key for s in generate_regular_subset(4)]
    assert "(lr*lr)" in keys4 and "(rLlr*n)" in keys4
    assert len(keys4) == 5


def test_generate_counts_match_oracle():
    counts = wedderburn_etherington(8)
    for m in range(1, 9):
        out = generate_regular_subset(m)
        assert len(out) == sum(counts[i] for i in range(1, m + 1))
        assert len({s.canonical_key for s in out}) == len(out)


def test_generate_monotone():
    prev = set()
    for m in range(1, 8):
        cur = {s.canonical_key for s in generate_regular_subset(m)}
        assert prev <= cur
        prev = cur


def test_generate_factors_appear_earlier():
    out = generate_regular_subset(6)
    pos = {s.canonical_key: i for i, s in enumerate(out)}
    for s in out:
        if s.kind == "prod":
            for child in s.children:
                assert pos[child.canonical_key] < pos[s.canonical_key]


# ---------------------------------------------------------------- regular set


def triple():
    return [sym("n"), sym("lr"), sym("rLlr")]


def test_regular_set_listing():
    entries = regular_set(triple(), P)
    pairs = [(e.pair[0].canonical_key, e.pair[1].canonical_key) for e in entries]
    assert sorted(pairs) == sorted(
        [("n", "rLlr"), ("rLlr", "n"), ("lr", "lr"), ("lr", "rLlr"), ("rLlr", "lr")]
    )
    for e in entries:
        assert e.sum_r > 0


def test_regular_set_excludes_negative_pairs():
    pairs = {(e.pair[0].canonical_key, e.pair[1].canonical_key)
             for e in regular_set(triple(), P, include_fully_regular=True)}
    assert ("n", "n") not in pairs          # 2a = -0.4
    assert ("n", "lr") not in pairs         # -0.2 + 0.1 = -0.1
    assert ("n", "rLlr") in pairs           # -0.2 + 0.3 = +0.1


def test_regular_set_full_adds_doubly_regular_diagonal():
    full = regular_set(triple(), P, include_fully_regular=True)
    assert len(full) == 6
    keys = [(e.pair[0].canonical_key, e.pair[1].canonical_key) for e in full]
    assert ("rLlr", "rLlr") in keys


# ---------------------------------------------------------------- floor check


def test_floor_default_params():
    rep = verify_regularity_floor(6, P)
    assert rep.holds
    assert rep.min_product_r == pytest.approx(0.1)
    assert rep.argmin_key == "lr"
    assert rep.min_r == pytest.approx(-0.2)


def test_floor_tight_params():
    rep = verify_regularity_floor(6, RegularityParams(alpha=-0.24, b=0.5))
    assert rep.holds
    assert rep.min_product_r == pytest.approx(0.02)


def test_floor_two_leaves():
    rep = verify_regularity_floor(2, P)
    assert rep.min_r == pytest.approx(min(P.alpha, 2 * P.alpha + P.b))


@pytest.mark.parametrize("alpha", [-0.24, -0.2, -0.1])
@pytest.mark.parametrize("b", [0.5, 0.6])
def test_floor_exhaustive_grid(alpha, b):
    rep = verify_regularity_floor(8, RegularityParams(alpha=alpha, b=b))
    assert rep.holds
    assert rep.argmin_key == "lr"


def test_floor_precondition():
    with pytest.raises(PreconditionViolated):
        verify_regularity_floor(4, RegularityParams(alpha=-0.6, b=0.5))
    with pytest.raises(PreconditionViolated):
        verify_regularity_floor(4, RegularityParams(alpha=0.1, b=0.5))


# ---------------------------------------------------------------- coefficients


def test_coefficient_map_standard():
    c = CoefficientMap.standard()
    assert c[sym("n")] == 1.0
    assert c[sym("lr")] == 1.0
    assert c[sym("rLlr")] == 2.0
    assert c[sym("(lr*lr)")] == 0.0


def test_coefficient_map_from_dict():
    c = CoefficientMap.from_dict({"lr": "2.5"})
    assert c["lr"] == 2.5 and c["n"] == 0.0


# ---------------------------------------------------------------- properties


@st.composite
def symbols(draw, max_depth=4):
    if max_depth == 0 or draw(st.booleans()):
        return sym(GENERATOR_KEY)
    return product(draw(symbols(max_depth=max_depth - 1)),
                   draw(symbols(max_depth=max_depth - 1)))


@given(symbols(), symbols())
def test_product_commutative(a, b):
    assert product(a, b).canonical_key == product(b, a).canonical_key
    assert product(a, b) == product(b, a)


@given(symbols(), symbols(), symbols())
def test_regularity_permutation_invariant(a, b, c):
    # product of three in any association order that canonicalizes equally
    lhs = product(product(a, b), c)
    rhs = product(c, product(b, a))
    assert lhs.canonical_key == rhs.canonical_key
    assert regularity(lhs, P) == regularity(rhs, P)
