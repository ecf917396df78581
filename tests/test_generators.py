"""Seeded generation: determinism, family constraints, and the PRNG."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gugp_workbench import (
    FAMILIES,
    GenSpec,
    GugpInstance,
    RelationalInstance,
    SplitMix64,
    TspInstance,
    TwoToTwoInstance,
    CapacityError,
    UsageError,
    brute_force_relational,
    generate,
    metrics,
    satisfied_weight,
    serialize,
)
from gugp_workbench import generators, rng

# first outputs of the reference algorithm for two fixed seeds; any
# re-implementation of the generator contract must reproduce these
REFERENCE_STREAM_1234567 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
)
REFERENCE_STREAM_0 = (
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
)


def reference_next(state):
    """Independent straight-line transcription of the published algorithm."""
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return state, z ^ (z >> 31)


# ---------------------------------------------------------------------------
# PRNG


def test_prng_reference_vectors():
    rng = SplitMix64(1234567)
    assert tuple(rng.next_u64() for _ in range(3)) == REFERENCE_STREAM_1234567
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == REFERENCE_STREAM_0


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_prng_matches_inline_reimplementation(seed):
    rng = SplitMix64(seed)
    state = seed
    for _ in range(5):
        state, expected = reference_next(state)
        assert rng.next_u64() == expected


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=100))
def test_below_is_plain_modulo(seed, bound):
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    assert a.below(bound) == b.next_u64() % bound


def test_shuffle_is_descending_fisher_yates():
    # independent replay of the documented shuffle order
    seed = 42
    items = list(range(8))
    SplitMix64(seed).shuffle(items)
    expected = list(range(8))
    rng = SplitMix64(seed)
    for i in range(7, 0, -1):
        j = rng.below(i + 1)
        expected[i], expected[j] = expected[j], expected[i]
    assert items == expected


LANES = rng._LANES


def assert_below_each_is_below(seed, bounds):
    packed, scalar = SplitMix64(seed), SplitMix64(seed)
    assert packed.below_each(bounds) == [scalar.below(b) for b in bounds]
    assert packed.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("bound", [1, 9, 2**64 + 3])
@pytest.mark.parametrize("length", [0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 5])
@pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1, -1, 2**70])
def test_below_each_is_below_per_bound(seed, length, bound):
    assert_below_each_is_below(seed, [bound] * length)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.lists(
        st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=1)),
        max_size=3 * LANES + 5,
    ),
)
def test_below_each_is_below_on_random_bound_lists(seed, bounds):
    assert_below_each_is_below(seed, bounds)


def test_below_each_refuses_a_bound_of_zero_before_any_draw():
    stream, untouched = SplitMix64(7), SplitMix64(7)
    with pytest.raises(ValueError):
        stream.below_each([3] * LANES + [0] + [3])
    assert stream.next_u64() == untouched.next_u64()


@pytest.mark.parametrize("bounds", [[0], [3, 0], [3, 3, 3, 3, -1]])
def test_below_each_refuses_a_short_list_with_a_bad_bound_before_any_draw(bounds):
    stream, untouched = SplitMix64(7), SplitMix64(7)
    with pytest.raises(ValueError):
        stream.below_each(bounds)
    assert stream.next_u64() == untouched.next_u64()


@pytest.mark.parametrize("seed", [2**64 - 5, 0, 9173])
def test_scalar_and_lane_routes_draw_alike_at_every_length(seed):
    # below_each draws every list in packed lanes; at every length, short
    # ones and those crossing a pass boundary included, it matches the
    # scalar loop
    bounds = [1 + 7 * i % 13 for i in range(2 * LANES + 1)] + [2**64 + 3]
    for length in range(2 * LANES + 2):
        assert_below_each_is_below(seed, bounds[-length:] if length else [])


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "spec",
    [
        GenSpec("random-gugp", seed=5, n=4, m=6, k=3),
        GenSpec("random-gugp", seed=5, n=4, m=6, k=3, nwa=True),
        GenSpec("random-gugp", seed=5, n=4, m=6, k=3, max_ratio=Fraction(1, 2)),
        GenSpec("random-tsp", seed=5, n=5),
        GenSpec("planted-3col", seed=5, n=6, m=7),
        GenSpec("random-t22", seed=5, n=4, m=5, k=2),
        GenSpec("random-t22", seed=5, n=4, m=5, k=2, satisfiable=True),
    ],
)
def test_same_spec_same_bytes(spec):
    a = generate(spec)
    b = generate(spec)
    assert serialize(a.instance) == serialize(b.instance)
    assert a.planted == b.planted


# full sha256 of serialize(instance) and of the planted LAB text (None when
# the family plants nothing), taken from the per-edge generator at 85e951d
PINNED_BYTES = [
    (
        GenSpec("random-gugp", seed=11, n=6, m=40, k=4),
        "0c67770baa5a33654736a178cf97f0f95e21f38b172e23ced019abbd805b26a6",
        None,
    ),
    (
        GenSpec("random-gugp", seed=12, n=30, m=200, k=5, nwa=True),
        "e513e45b5f071887229512b5cc9c4a5eb0d410ad3fb48406af1505d29a91e2cb",
        None,
    ),
    (
        GenSpec("random-gugp", seed=13, n=5, m=12, k=3, max_ratio=Fraction(1, 2)),
        "d6af647f7c25237d76f6c04d800b4d4f68c44e255cf63cd790bc13c0d90899c1",
        None,
    ),
    (
        GenSpec("random-gugp", seed=14, n=5, m=12, k=3, max_ratio=Fraction(0)),
        "a9436f8ab9fdc7e5af8da81860aad7dd7130de8d5c1e2d27acdb05f7ebd37832",
        None,
    ),
    (
        GenSpec("random-tsp", seed=15, n=9),
        "ab35bf6ca8fc3c6a2a0318c7947d75bde3d1c122c6ee06336956dd0723b56db5",
        None,
    ),
    (
        GenSpec("planted-3col", seed=16, n=9, m=14),
        "0dde641e11d5e8d917b8f7ea4bb8783b4a1e932ee52806ef43d6d3cbcc5f5f19",
        "a6c106ab7a24dc969f94fc91b9c52ac209c2c271a1b36bffbac244129891814c",
    ),
    (
        GenSpec("random-t22", seed=17, n=6, m=20, k=2),
        "e8e1b91ec8c80f4206fffe2a55414177ff79ea4e1f2955141c88b0faca4349db",
        None,
    ),
    (
        GenSpec("random-t22", seed=18, n=7, m=20, k=3, satisfiable=True),
        "5f09a6f76726fd7dbf4f19cfe85287052eb3497094abe125ed0e0924e8629d2e",
        "6d5155c4b2aaa5aec7a1af41ae17c9da5837be460d38f16e31079a77bc3f9181",
    ),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("spec, instance_sha, planted_sha", PINNED_BYTES)
def test_generated_bytes_are_pinned(spec, instance_sha, planted_sha):
    result = generate(spec)
    assert _sha256(serialize(result.instance)) == instance_sha
    planted = None if result.planted is None else _sha256(serialize(result.planted))
    assert planted == planted_sha


def test_different_seeds_differ():
    a = generate(GenSpec("random-gugp", seed=1, n=4, m=6, k=3))
    b = generate(GenSpec("random-gugp", seed=2, n=4, m=6, k=3))
    assert serialize(a.instance) != serialize(b.instance)


# ---------------------------------------------------------------------------
# family constraints


@given(st.integers(min_value=0, max_value=2**62))
@settings(max_examples=30)
def test_random_gugp_shape(seed):
    result = generate(GenSpec("random-gugp", seed=seed, n=4, m=6, k=3))
    inst = result.instance
    assert isinstance(inst, GugpInstance)
    assert inst.n == 4 and inst.k == 3 and len(inst.edges) == 6
    assert result.planted is None


@given(st.integers(min_value=0, max_value=2**62))
@settings(max_examples=30)
def test_nwa_flag_forces_all_negative(seed):
    result = generate(GenSpec("random-gugp", seed=seed, n=4, m=6, k=3, nwa=True))
    assert all(e.weight < 0 for e in result.instance.edges)


@given(st.integers(min_value=0, max_value=2**62))
@settings(max_examples=30)
def test_ratio_bound_respected(seed):
    bound = Fraction(1, 2)
    result = generate(
        GenSpec("random-gugp", seed=seed, n=4, m=6, k=3, max_ratio=bound)
    )
    m = metrics(result.instance)
    assert m.ratio is not None and m.ratio <= bound


@given(st.integers(min_value=0, max_value=2**62))
@settings(max_examples=20)
def test_ratio_zero_means_all_positive(seed):
    result = generate(
        GenSpec("random-gugp", seed=seed, n=4, m=6, k=3, max_ratio=Fraction(0))
    )
    assert all(e.weight > 0 for e in result.instance.edges)


def test_ratio_resampling_is_bounded_by_drawn_size(monkeypatch):
    # m*k = 60 per draw and no draw of seed 1 meets the bound, so the work
    # bound (ten caps drawn) ends the loop after 11 draws
    spec = GenSpec("random-gugp", seed=1, n=4, m=60, k=1, max_ratio=Fraction(1, 100))
    monkeypatch.setattr(generators, "GEN_SIZE_CAP", 60)
    with pytest.raises(UsageError, match="^could not meet ratio bound 1/100 within 11 resamples$"):
        generate(spec)
    # the count bound still applies to small draws
    monkeypatch.setattr(generators, "GEN_SIZE_CAP", 10**6)
    monkeypatch.setattr(generators, "_RESAMPLE_BUDGET", 3)
    with pytest.raises(UsageError, match="^could not meet ratio bound 1/100 within 3 resamples$"):
        generate(spec)


def test_nwa_with_ratio_bound_is_unsatisfiable():
    with pytest.raises(UsageError):
        generate(
            GenSpec(
                "random-gugp", seed=1, n=4, m=6, k=3, nwa=True, max_ratio=Fraction(1)
            )
        )


@given(st.integers(min_value=0, max_value=2**62))
@settings(max_examples=20)
def test_random_tsp_is_complete_and_positive(seed):
    result = generate(GenSpec("random-tsp", seed=seed, n=5))
    tsp = result.instance
    assert isinstance(tsp, TspInstance)
    assert len(tsp.weights) == 10
    assert all(w > 0 for _, _, w in tsp.weights)


@given(st.integers(min_value=0, max_value=2**62))
@settings(max_examples=20)
def test_planted_3col_coloring_satisfies_everything(seed):
    result = generate(GenSpec("planted-3col", seed=seed, n=6, m=7))
    inst = result.instance
    assert isinstance(inst, RelationalInstance)
    assert result.planted is not None
    assert all(1 <= c <= 3 for c in result.planted)
    total = sum((e.weight for e in inst.edges), Fraction(0))
    assert satisfied_weight(inst, result.planted) == total
    # edges are distinct as unordered pairs
    pairs = [(min(e.u, e.v), max(e.u, e.v)) for e in inst.edges]
    assert len(set(pairs)) == len(pairs) == 7


def test_planted_3col_infeasible_edge_budget():
    # n=2 admits at most one bichromatic pair
    with pytest.raises(UsageError, match="bichromatic"):
        generate(GenSpec("planted-3col", seed=0, n=2, m=2))


@given(st.integers(min_value=0, max_value=2**62))
@settings(max_examples=20)
def test_random_t22_shape(seed):
    result = generate(GenSpec("random-t22", seed=seed, n=4, m=5, k=2))
    inst = result.instance
    assert isinstance(inst, TwoToTwoInstance)
    assert inst.k == 2 and len(inst.edges) == 5
    assert all(e.weight == 1 for e in inst.edges)


@given(st.integers(min_value=0, max_value=2**62))
@settings(max_examples=15, deadline=None)
def test_random_t22_satisfiable_planting(seed):
    result = generate(
        GenSpec("random-t22", seed=seed, n=4, m=5, k=2, satisfiable=True)
    )
    assert result.planted is not None
    relational = result.instance.to_unit_relational()
    total = sum((e.weight for e in relational.edges), Fraction(0))
    assert satisfied_weight(relational, result.planted) == total
    # brute force confirms a fully satisfying labeling exists
    assert brute_force_relational(relational).value == 1


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize(
    "family, k, permutations_of",
    [
        ("random-gugp", 3, lambda e: (e.pi,)),
        ("random-t22", 2, lambda e: (e.pi_u, e.pi_v)),
    ],
)
def test_distinct_images_are_distinct_objects(seed, family, k, permutations_of):
    # draw-keyed permutations share one object per image, so the cached
    # Permutation.rows and serialize_gugp's id-keyed texts are paid once per
    # image; planted random-t22 pi_u images are built per edge, not shared
    spec = GenSpec(family, seed=seed, n=6, m=200, k=k)
    pis = [pi for e in generate(spec).instance.edges for pi in permutations_of(e)]
    assert len(set(map(id, pis))) == len({pi.image for pi in pis}) < len(pis)


# ---------------------------------------------------------------------------
# flag validation


def test_unknown_family():
    with pytest.raises(UsageError, match="unknown family"):
        generate(GenSpec("bogus", seed=1, n=3))


def test_flag_cross_validation():
    with pytest.raises(UsageError):
        generate(GenSpec("random-tsp", seed=1, n=4, nwa=True))
    with pytest.raises(UsageError):
        generate(GenSpec("random-tsp", seed=1, n=4, max_ratio=Fraction(1)))
    with pytest.raises(UsageError):
        generate(GenSpec("random-gugp", seed=1, n=4, m=3, k=2, satisfiable=True))


def test_size_validation():
    with pytest.raises(UsageError):
        generate(GenSpec("random-gugp", seed=1, n=1, m=3, k=2))
    with pytest.raises(UsageError):
        generate(GenSpec("random-tsp", seed=1, n=2))
    with pytest.raises(UsageError):
        generate(GenSpec("random-t22", seed=1, n=3, m=2, k=1))



@pytest.mark.parametrize(
    "spec, size",
    [
        (GenSpec("random-gugp", seed=1, n=4, m=3, k=2), 3 * 2),
        (GenSpec("random-tsp", seed=1, n=5), 5 * 4 // 2),
        (GenSpec("planted-3col", seed=1, n=6, m=4), 6 + 4),
        (GenSpec("random-t22", seed=1, n=3, m=2, k=2, satisfiable=True), 4 * 2 * 2 + 3),
    ],
    ids=lambda x: x.family if isinstance(x, GenSpec) else None,
)
def test_size_cap_boundary(monkeypatch, spec, size):
    # a spec of exactly the cap is drawn; one over it is refused before a draw
    monkeypatch.setattr(generators, "GEN_SIZE_CAP", size)
    assert generate(spec).instance is not None
    monkeypatch.setattr(generators, "GEN_SIZE_CAP", size - 1)
    message = f"^{spec.family} size {size} exceeds cap {size - 1}$"
    with pytest.raises(CapacityError, match=message):
        generate(spec)

def test_families_constant_matches_dispatch():
    assert FAMILIES == ("random-gugp", "random-tsp", "planted-3col", "random-t22")
