"""The engine differential fuzzer: naive ≡ vector on random programs.

Every seeded random program must produce byte-identical final databases
(or the identical typed error) on the naive interpreter and the
vectorized backend.  The seed budget is ``REPRO_ENGINE_DIFF_BUDGET``
(default 200, raised in the CI ``engine-differential`` job); seeds are
split across straight-line, wildcard, and while-loop program families,
and any failure is shrunk to a minimal reproducing program before being
reported.
"""

import os

import pytest

from diffgen import check_case, describe_failure, gen_case

BUDGET = max(30, int(os.environ.get("REPRO_ENGINE_DIFF_BUDGET", "200")))

#: (family, seed offset, per-family share, gen_case feature flags).
#: Offsets keep the three corpora in disjoint, stable seed spaces —
#: Python's built-in ``hash`` is salted per process and must not be used
#: for seeding.  Shares sum to 1.
FAMILIES = [
    ("straightline", 0, 0.4, {"allow_while": False, "allow_wildcards": False}),
    ("wildcards", 1_000_000, 0.3, {"allow_while": False, "allow_wildcards": True}),
    ("while", 2_000_000, 0.3, {"allow_while": True, "allow_wildcards": True}),
]

#: Seeds are run in chunks so a divergence pins to a narrow seed range
#: without paying one pytest node per seed.
CHUNKS = 10


def _family_seeds(share: float) -> int:
    return max(10, round(BUDGET * share))


@pytest.mark.parametrize("chunk", range(CHUNKS))
@pytest.mark.parametrize(
    "family,offset,share,flags", FAMILIES, ids=[f[0] for f in FAMILIES]
)
def test_random_programs_agree(family, offset, share, flags, chunk):
    total = _family_seeds(share)
    lo = chunk * total // CHUNKS
    hi = (chunk + 1) * total // CHUNKS
    for index in range(lo, hi):
        seed = offset + index
        program, db = gen_case(seed, **flags)
        message = check_case(program, db)
        if message is not None:
            pytest.fail(describe_failure(seed, program, db, message))


def _nan_case(last):
    """R holds one row with a NaN; the product with S's two rows copies
    that one NaN object into both rows of U."""
    from repro.algebra.programs import parse_program
    from repro.core import NULL, Name, Table, TabularDatabase, Value

    rho = Table([[Name("R"), Name("A")], [NULL, Value(float("nan"))]])
    sigma = Table([[Name("S"), Name("B")], [NULL, Value(1)], [NULL, Value(2)]])
    program = parse_program(
        f"T <- PRODUCT (R, S)\nU <- PROJECT attrs {{A}} (T)\n{last}\n"
    )
    return program, TabularDatabase([rho, sigma])


@pytest.mark.parametrize(
    "last,height",
    [("W <- DEDUP (U)", 2), ("W <- CLASSICALUNION (U, U)", 4)],
    ids=["dedup", "classical-union"],
)
def test_rows_sharing_a_nan_object_stay_apart(last, height):
    """A NaN equals itself only by identity, so CLEAN-UP's merge finds
    two rows sharing one NaN object a conflict and keeps both.  Id-level
    kernels that interned the NaN to one id once merged them on the
    vector engine (1 row against 2 for DEDUP, against 4 for
    CLASSICALUNION)."""
    program, db = _nan_case(last)
    message = check_case(program, db)
    assert message is None, message
    assert program.run(db).tables_named("W")[0].height == height


def test_budget_covers_the_issue_floor():
    """The default corpus is at least the 200 programs the issue pins."""
    default = 200
    total = sum(max(10, round(default * share)) for _, _, share, _ in FAMILIES)
    assert total >= 200


def test_while_and_wildcard_programs_actually_occur():
    """The generator really emits the features the families claim."""
    from repro.algebra.programs.params import Star
    from repro.algebra.programs.statements import Assignment, While

    whiles = wildcards = 0
    for index in range(40):
        program, _db = gen_case(3_000_000 + index)
        for statement in program.statements:
            if isinstance(statement, While):
                whiles += 1
            if isinstance(statement, Assignment):
                stars = [a for a in statement.args if isinstance(a, Star)]
                wildcards += bool(stars)
    assert whiles > 0 and wildcards > 0


def test_shrinker_minimizes_a_synthetic_failure():
    """shrink_case converges on a local minimum for an injected bug.

    We cannot make the real backends disagree, so the 'failure' here is
    a case-insensitive check: a program whose *one* load-bearing
    statement is kept while every irrelevant statement and table is
    dropped, using a predicate that fails whenever the program still
    contains a PRODUCT statement.
    """
    from diffgen import shrink_case
    from repro.algebra.programs.statements import Assignment, Program

    program, db = gen_case(12345, allow_while=False, allow_wildcards=False)
    keeper = Assignment("Z", "PRODUCT", ["R", "R"])
    program = Program(list(program.statements) + [keeper])

    import diffgen

    original = diffgen.check_case
    try:
        diffgen.check_case = lambda p, d, m=0: (
            "injected"
            if any(
                isinstance(s, Assignment) and s.spec.name == "PRODUCT"
                for s in p.statements
            )
            else None
        )
        small_program, small_db = shrink_case(program, db)
    finally:
        diffgen.check_case = original

    assert len(small_program.statements) == 1
    assert small_program.statements[0].spec.name == "PRODUCT"
    assert len(small_db.tables) <= 1
