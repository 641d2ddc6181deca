"""Symbolic algebra of product trees indexing the enhanced data.

A single generator symbol is closed under a commutative (non-associative)
product.  Every symbol carries a regularity exponent computed recursively:
the generator has exponent ``alpha``, and each product gains ``b`` on top of
``min(r1, r2, r1 + r2)``.  Pairs of symbols whose exponents sum positively
form the "regular set": their products are classically defined and may appear
as forcing terms in the remainder equation.

Symbols are identified by canonical string keys.  The two standard iterated
symbols keep their conventional short names (``lr`` for generator*generator,
``rLlr`` for lr*generator); everything deeper gets a structural key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionViolated, UnitSymbol

UNIT_KEY = "1"
GENERATOR_KEY = "n"

# sorted child-key pair -> conventional short name
_NAMED_PRODUCTS = {
    (GENERATOR_KEY, GENERATOR_KEY): "lr",
    ("lr", GENERATOR_KEY): "rLlr",
}


@dataclass(frozen=True)
class TreeSymbol:
    """Immutable tree symbol with a commutativity-normalized key.

    Do not call the constructor directly; use :func:`parse_symbol`
    and :func:`product`, which canonicalize.
    """

    kind: str                      # "unit" | "gen" | "prod"
    children: tuple = ()           # (left, right), sorted by canonical key
    canonical_key: str = ""

    @property
    def leaves(self) -> int:
        """Number of generator occurrences."""
        if self.kind == "unit":
            return 0
        if self.kind == "gen":
            return 1
        return self.children[0].leaves + self.children[1].leaves

    def __mul__(self, other: "TreeSymbol") -> "TreeSymbol":
        return product(self, other)

    def __repr__(self):
        return f"TreeSymbol({self.canonical_key!r})"


_UNIT = TreeSymbol("unit", (), UNIT_KEY)
_GEN = TreeSymbol("gen", (), GENERATOR_KEY)


def product(a: TreeSymbol, b: TreeSymbol) -> TreeSymbol:
    """Commutative product; the unit is neutral."""
    if a.kind == "unit":
        return b
    if b.kind == "unit":
        return a
    lo, hi = sorted((a, b), key=lambda s: (s.leaves, s.canonical_key))
    key = _NAMED_PRODUCTS.get((hi.canonical_key, lo.canonical_key))
    if key is None:
        key = f"({hi.canonical_key}*{lo.canonical_key})"
    return TreeSymbol("prod", (hi, lo), key)


def parse_symbol(key: str) -> TreeSymbol:
    """Inverse of ``canonical_key`` for keys this module can produce."""
    key = key.strip()
    if key == UNIT_KEY:
        return _UNIT
    if key == GENERATOR_KEY:
        return _GEN
    if key == "lr":
        return product(_GEN, _GEN)
    if key == "rLlr":
        return product(product(_GEN, _GEN), _GEN)
    if key.startswith("(") and key.endswith(")"):
        inner = key[1:-1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "*" and depth == 0:
                return product(parse_symbol(inner[:i]), parse_symbol(inner[i + 1:]))
    raise UnknownSymbolKey(key)


class UnknownSymbolKey(KeyError):
    pass


@dataclass(frozen=True)
class RegularityParams:
    """Exponent assignment: ``alpha`` for the generator, gain ``b`` per product."""

    alpha: float
    b: float

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError(f"b must be positive, got {self.b}")

    @property
    def gains_regularity(self) -> bool:
        """alpha + b > 0: one integration step lands above zero."""
        return self.alpha + self.b > 0

    @property
    def subcritical(self) -> bool:
        """2*alpha + b > 0: the remainder equation closes without an ansatz."""
        return 2 * self.alpha + self.b > 0


def regularity(sym: TreeSymbol, params: RegularityParams) -> float:
    """Regularity exponent r(sym), by structural recursion.

    r(generator) = alpha; r(a*b) = min(r(a), r(b), r(a)+r(b)) + b.
    """
    if sym.kind == "unit":
        raise UnitSymbol("regularity is undefined on the unit symbol")
    if sym.kind == "gen":
        return params.alpha
    r1 = regularity(sym.children[0], params)
    r2 = regularity(sym.children[1], params)
    return min(r1, r2, r1 + r2) + params.b


def generate_regular_subset(max_leaves: int) -> list[TreeSymbol]:
    """All canonical symbols with at most ``max_leaves`` generator leaves.

    Ordered by (leaf count, key), so every product appears strictly after
    both of its factors.
    """
    if max_leaves < 1:
        raise ValueError("max_leaves must be >= 1")
    by_leaves: dict[int, dict[str, TreeSymbol]] = {1: {GENERATOR_KEY: _GEN}}
    for n in range(2, max_leaves + 1):
        level: dict[str, TreeSymbol] = {}
        for i in range(1, n // 2 + 1):
            for a in by_leaves[i].values():
                for b in by_leaves[n - i].values():
                    p = product(a, b)
                    level[p.canonical_key] = p
        by_leaves[n] = level
    out: list[TreeSymbol] = []
    for n in range(1, max_leaves + 1):
        out.extend(sorted(by_leaves[n].values(), key=lambda s: s.canonical_key))
    return out


@dataclass(frozen=True)
class RegularSetEntry:
    pair: tuple[TreeSymbol, TreeSymbol]
    sum_r: float


def regular_set(symbols: list[TreeSymbol], params: RegularityParams,
                include_fully_regular: bool = False) -> list[RegularSetEntry]:
    """Ordered pairs from ``symbols`` whose regularities sum positively.

    Distinct pairs appear in both orientations; diagonal pairs once.  By
    default, pairs in which *both* factors already sit at or above the
    one-integration threshold ``alpha + b`` are omitted — those products
    never need the resonant estimate, and conventional listings leave them
    out.  Pass ``include_fully_regular=True`` to get every positive-sum
    pair (the form the remainder equation sums over).
    """
    rho = params.alpha + params.b
    rs = {s.canonical_key: regularity(s, params) for s in symbols}
    out = []
    for s1 in symbols:
        for s2 in symbols:
            r1, r2 = rs[s1.canonical_key], rs[s2.canonical_key]
            if r1 + r2 <= 0:
                continue
            if not include_fully_regular and r1 >= rho and r2 >= rho:
                continue
            out.append(RegularSetEntry((s1, s2), r1 + r2))
    return out


@dataclass
class FloorReport:
    """Result of the exhaustive product-regularity floor check."""

    floor: float                 # 2*alpha + b
    min_product_r: float         # min of r over products (>= 2 leaves)
    argmin_key: str
    min_r: float                 # min of r over every symbol incl. generator
    n_symbols: int
    holds: bool


def verify_regularity_floor(max_leaves: int, params: RegularityParams) -> FloorReport:
    """Check r(tau) >= 2*alpha + b over every product with <= max_leaves leaves.

    The bound concerns products; the generator itself sits at alpha, which
    lies below the floor whenever alpha + b > 0.  The report carries both
    minima.
    """
    if params.alpha + params.b <= 0:
        raise PreconditionViolated(
            f"needs alpha + b > 0, got {params.alpha + params.b}")
    if params.alpha >= 0:
        raise PreconditionViolated(f"needs alpha < 0, got {params.alpha}")
    floor = 2 * params.alpha + params.b
    symbols = generate_regular_subset(max_leaves)
    min_product_r = float("inf")
    argmin = ""
    min_all = float("inf")
    for s in symbols:
        r = regularity(s, params)
        min_all = min(min_all, r)
        if s.kind == "prod" and r < min_product_r:
            min_product_r = r
            argmin = s.canonical_key
    holds = min_product_r >= floor - 1e-12
    return FloorReport(floor, min_product_r, argmin, min_all, len(symbols), holds)


@dataclass
class CoefficientMap:
    """Scalar coefficient per tree symbol, keyed by canonical key.

    Symbols without an entry have coefficient 0.
    """

    entries: dict[str, float] = field(default_factory=dict)

    @classmethod
    def standard(cls) -> "CoefficientMap":
        """Default expansion coefficients for the three-symbol reconstruction."""
        return cls({GENERATOR_KEY: 1.0, "lr": 1.0, "rLlr": 2.0})

    @classmethod
    def from_dict(cls, d: dict) -> "CoefficientMap":
        return cls({str(k): float(v) for k, v in d.items()})

    def get(self, sym) -> float:
        key = sym.canonical_key if isinstance(sym, TreeSymbol) else str(sym)
        return self.entries.get(key, 0.0)

    def __getitem__(self, sym) -> float:
        return self.get(sym)
