"""Generator semantics: the documented mixing constants, stream forking,
and the distribution helpers."""

import math

import numpy as np

from densefocus.rng import Rng, fnv1a64

MASK = (1 << 64) - 1


def ref_mix(z):
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def ref_sequence(seed, n):
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        out.append(ref_mix(state))
    return out


def test_u64_stream_matches_reference():
    for seed in (0, 1, 42, 2**63, 0xDEADBEEF):
        rng = Rng(seed)
        got = [rng.next_u64() for _ in range(16)]
        assert got == ref_sequence(seed, 16)


def test_same_seed_same_stream():
    a = [Rng(7).next_u64() for _ in range(8)]
    b = [Rng(7).next_u64() for _ in range(8)]
    assert a == b


def test_different_seeds_differ():
    assert Rng(1).next_u64() != Rng(2).next_u64()


def test_random_unit_interval():
    rng = Rng(3)
    ref = Rng(3)
    for _ in range(500):
        v = rng.random()
        assert 0.0 <= v < 1.0
        assert v == (ref.next_u64() >> 11) * 2.0**-53


def test_uniform_bounds_and_mapping():
    rng = Rng(11)
    ref = Rng(11)
    for _ in range(200):
        v = rng.uniform(-2.5, 4.0)
        assert -2.5 <= v <= 4.0
        assert v == -2.5 + 6.5 * ref.random()


def test_randint_inclusive_hits_both_ends():
    rng = Rng(5)
    seen = {rng.randint(0, 3) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_randint_degenerate_and_error():
    assert Rng(1).randint(4, 4) == 4
    try:
        Rng(1).randint(3, 2)
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_normal_matches_box_muller_reference():
    rng = Rng(9)
    ref = Rng(9)
    for _ in range(100):
        got = rng.normal(1.5, 2.0)
        u1 = ref.random()
        if u1 == 0.0:
            u1 = 2.0**-53
        u2 = ref.random()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        assert got == 1.5 + 2.0 * z


def test_normal_moments_roughly_standard():
    rng = Rng(123)
    xs = [rng.normal() for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05


def test_fnv1a64_known_values():
    # offset basis for empty input, then one hand-computed step
    assert fnv1a64(b"") == 0xCBF29CE484222325
    expected = ((0xCBF29CE484222325 ^ ord("a")) * 0x100000001B3) & MASK
    assert fnv1a64(b"a") == expected


def test_derive_is_deterministic_and_name_sensitive():
    a1 = Rng(7).derive("weights").next_u64()
    a2 = Rng(7).derive("weights").next_u64()
    b = Rng(7).derive("bias").next_u64()
    assert a1 == a2
    assert a1 != b


def test_derive_seed_construction():
    parent = Rng(7)
    child = parent.derive("x")
    expected = Rng(ref_mix(7 ^ fnv1a64(b"x")))
    assert child.next_u64() == expected.next_u64()


def test_derive_does_not_advance_parent():
    rng = Rng(7)
    before = Rng(7).next_u64()
    rng.derive("x")
    assert rng.next_u64() == before


# Seeds 2**63 and 2**64 - 1 put the state past 2**64 within a few steps, so
# the bulk draws must wrap exactly as the scalar ones do.
BULK_SEEDS = (0, 1, 2**63, 2**64 - 1)
BULK_SIZES = (0, 1, 2, 7, 1000)


def test_randoms_equal_scalar_draws_and_leave_the_stream_in_step():
    for seed in BULK_SEEDS:
        for n in BULK_SIZES:
            bulk, scalar = Rng(seed), Rng(seed)
            got = bulk.randoms(n)
            want = np.array([scalar.random() for _ in range(n)])
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tobytes() == want.tobytes()
            assert bulk.next_u64() == scalar.next_u64()


def test_normals_equal_scalar_draws_and_leave_the_stream_in_step():
    for seed in BULK_SEEDS:
        for n in BULK_SIZES:
            bulk, scalar = Rng(seed), Rng(seed)
            got = bulk.normals(n)
            want = np.array([scalar.normal() for _ in range(n)])
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tobytes() == want.tobytes()
            assert bulk.next_u64() == scalar.next_u64()


def test_bulk_draws_reject_a_negative_count():
    rng = Rng(3)
    for draw in (rng.randoms, rng.normals):
        try:
            draw(-1)
            assert False, "expected ValueError"
        except ValueError:
            pass
    assert rng.next_u64() == Rng(3).next_u64()


def test_normals_guard_a_zero_first_uniform():
    # the first draw of a state one step short of 0 mod 2**64 mixes 0 to 0,
    # so u1 is exactly 0.0 and both paths must take the guard
    rng = Rng(-0x9E3779B97F4A7C15)
    assert Rng(-0x9E3779B97F4A7C15).random() == 0.0
    got = rng.normals(1)[0]
    assert math.isfinite(got)
    assert got == Rng(-0x9E3779B97F4A7C15).normal()
