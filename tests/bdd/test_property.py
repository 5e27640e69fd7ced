"""Property-based tests for the BDD engine (hypothesis)."""

import random

from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager, sift_to_convergence

N_VARS = 5


def boolexprs(max_depth=4):
    """Strategy producing (python evaluator, bdd builder) expression trees."""
    leaves = st.one_of(
        st.integers(min_value=0, max_value=N_VARS - 1).map(
            lambda v: ("var", v)
        ),
        st.sampled_from([("const", False), ("const", True)]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.just("not"), children).map(lambda t: ("not", t[1])),
            st.tuples(
                st.sampled_from(["and", "or", "xor"]), children, children
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def eval_py(tree, bits):
    kind = tree[0]
    if kind == "var":
        return bits[tree[1]]
    if kind == "const":
        return tree[1]
    if kind == "not":
        return not eval_py(tree[1], bits)
    a, b = eval_py(tree[1], bits), eval_py(tree[2], bits)
    if kind == "and":
        return a and b
    if kind == "or":
        return a or b
    return a != b  # xor


def build_bdd(tree, m):
    kind = tree[0]
    if kind == "var":
        return m.var(tree[1])
    if kind == "const":
        return m.constant(tree[1])
    if kind == "not":
        return ~build_bdd(tree[1], m)
    a, b = build_bdd(tree[1], m), build_bdd(tree[2], m)
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    return a ^ b


def all_bits():
    for mask in range(1 << N_VARS):
        yield {v: bool((mask >> v) & 1) for v in range(N_VARS)}


@settings(max_examples=60, deadline=None)
@given(boolexprs())
def test_bdd_matches_python_semantics(tree):
    m = BddManager()
    for i in range(N_VARS):
        m.new_var()
    f = build_bdd(tree, m)
    for bits in all_bits():
        assert f(bits) == eval_py(tree, bits)
    m.check()


@settings(max_examples=40, deadline=None)
@given(boolexprs(), st.integers(min_value=0, max_value=2**30))
def test_swaps_preserve_semantics(tree, seed):
    m = BddManager()
    for i in range(N_VARS):
        m.new_var()
    f = build_bdd(tree, m)
    expected = [eval_py(tree, bits) for bits in all_bits()]
    rng = random.Random(seed)
    for _ in range(12):
        m.swap_levels(rng.randrange(N_VARS - 1))
    assert [f(bits) for bits in all_bits()] == expected
    m.check()


@settings(max_examples=30, deadline=None)
@given(boolexprs())
def test_sifting_preserves_semantics_and_never_grows(tree):
    m = BddManager()
    for i in range(N_VARS):
        m.new_var()
    f = build_bdd(tree, m)
    expected = [eval_py(tree, bits) for bits in all_bits()]
    before = f.size()
    sift_to_convergence(m, root=f)
    assert f.size() <= before
    assert [f(bits) for bits in all_bits()] == expected


@settings(max_examples=40, deadline=None)
@given(boolexprs())
def test_count_sat_matches_enumeration(tree):
    m = BddManager()
    for i in range(N_VARS):
        m.new_var()
    f = build_bdd(tree, m)
    expected = sum(1 for bits in all_bits() if eval_py(tree, bits))
    assert f.count_sat(list(range(N_VARS))) == expected


@settings(max_examples=40, deadline=None)
@given(boolexprs(), st.integers(min_value=0, max_value=N_VARS - 1))
def test_shannon_expansion(tree, var):
    m = BddManager()
    for i in range(N_VARS):
        m.new_var()
    f = build_bdd(tree, m)
    lo, hi = f.cofactors(var)
    x = m.var(var)
    assert ((x & hi) | (~x & lo)) == f


@settings(max_examples=40, deadline=None)
@given(boolexprs(), st.integers(min_value=0, max_value=N_VARS - 1))
def test_quantifier_semantics(tree, var):
    m = BddManager()
    for i in range(N_VARS):
        m.new_var()
    f = build_bdd(tree, m)
    lo, hi = f.cofactors(var)
    assert f.exists([var]) == (lo | hi)
    assert f.forall([var]) == (lo & hi)


@settings(max_examples=30, deadline=None)
@given(boolexprs())
def test_iter_sat_covers_exactly_the_onset(tree):
    m = BddManager()
    for i in range(N_VARS):
        m.new_var()
    f = build_bdd(tree, m)
    covered = set()
    for cube in f.iter_sat():
        free = [v for v in range(N_VARS) if v not in cube]
        for mask in range(1 << len(free)):
            bits = dict(cube)
            for i, v in enumerate(free):
                bits[v] = bool((mask >> i) & 1)
            key = tuple(bits[v] for v in range(N_VARS))
            assert key not in covered, "cubes overlap"
            covered.add(key)
    onset = {
        tuple(bits[v] for v in range(N_VARS))
        for bits in all_bits()
        if eval_py(tree, bits)
    }
    assert covered == onset
