"""Prime fields: construction guards, primality, sampling, enumeration."""

import math
import random

import pytest

import graphspir.field as field_module
from graphspir import PrimeField
from graphspir.field import _MR_EXACT_BELOW


class TestConstructionGuards:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
    def test_prime_moduli_accepted(self, q):
        assert PrimeField(q).modulus == q

    @pytest.mark.parametrize("q", [-3, 0, 1, 4, 6, 9, 15])
    def test_non_prime_moduli_rejected(self, q):
        with pytest.raises(ValueError):
            PrimeField(q)

    @pytest.mark.parametrize("q", [3.0, True])
    def test_non_int_modulus_rejected(self, q):
        # True would otherwise be read as 1, and 3.0 passes the primality test
        with pytest.raises(ValueError, match=rf"^field modulus must be an int, got {q!r}$"):
            PrimeField(q)

    def test_out_of_range_value_rejected(self):
        field = PrimeField(3)
        with pytest.raises(ValueError, match="^symbol 3 does not belong to the field of order 3$"):
            field.check(3)
        with pytest.raises(ValueError, match="^symbol -1 does not belong to the field of order 3$"):
            field.check(-1)

    def test_value_from_larger_field_rejected(self):
        # a symbol valid in F5 is not a valid F2 symbol
        assert PrimeField(5).check(4) == 4
        with pytest.raises(ValueError):
            PrimeField(2).check(4)


def _accepts(q: int) -> bool:
    try:
        PrimeField(q)
    except ValueError:
        return False
    return True


class TestPrimality:
    """Miller-Rabin with fixed bases, checked against trial division."""

    @pytest.mark.parametrize("q", [561, 41041])
    def test_carmichael_numbers_rejected(self, q):
        assert not _accepts(q)

    def test_strong_pseudoprime_to_small_bases_rejected(self):
        # a strong pseudoprime to bases 2, 3, 5 and 7
        assert not _accepts(3215031751)

    def test_mersenne_61_accepted(self):
        assert PrimeField(2**61 - 1).modulus == 2**61 - 1

    def test_composite_above_the_exact_bound_rejected(self):
        # no factor among the Miller-Rabin bases; the bound alone refuses it
        assert not _accepts(43 * 47**15)

    @pytest.mark.parametrize("q", [2**89 - 1, _MR_EXACT_BELOW])
    def test_modulus_from_the_exact_bound_up_rejected_untested(self, q, monkeypatch):
        # 2^89 - 1 is prime, but no exact test of it is fast enough, so the
        # bound refuses it before any primality test runs
        def untested(n):
            raise AssertionError(f"tested the primality of {n}")

        monkeypatch.setattr(field_module, "_is_prime", untested)
        with pytest.raises(ValueError, match=f"below {_MR_EXACT_BELOW}"):
            PrimeField(q)

    def test_largest_prime_below_the_exact_bound_accepted(self):
        q = next(n for n in range(_MR_EXACT_BELOW - 2, 0, -2) if _accepts(n))
        assert _MR_EXACT_BELOW - q < 10**4

    def test_agrees_with_trial_division_below_1e5(self):
        for q in range(10**5):
            by_division = q >= 2 and all(q % f for f in range(2, math.isqrt(q) + 1))
            assert _accepts(q) == by_division, q


class TestSampling:
    def test_same_seed_same_sequence(self):
        field = PrimeField(2)
        rng_a, rng_b = random.Random(41), random.Random(41)
        draws_a = [field.sample_vector(rng_a, 5) for _ in range(10)]
        draws_b = [field.sample_vector(rng_b, 5) for _ in range(10)]
        assert draws_a == draws_b

    def test_sample_in_range(self):
        field = PrimeField(7)
        rng = random.Random(3)
        assert all(0 <= s < 7 for s in field.sample_vector(rng, 200))

    def test_uniformity_frequencies(self):
        field = PrimeField(5)
        rng = random.Random(2024)
        draws = 100_000
        counts = [0] * 5
        for s in field.sample_vector(rng, draws):
            counts[s] += 1
        for count in counts:
            assert 0.18 <= count / draws <= 0.22

    def test_sample_vector_length_and_range(self):
        field = PrimeField(3)
        vec = field.sample_vector(random.Random(0), 6)
        assert len(vec) == 6
        assert all(0 <= v < 3 for v in vec)

    # just above a power of two (3, 5, 17, 257, 65537) about half of all
    # draws are redrawn; the last is the largest prime below the exact bound
    @pytest.mark.parametrize(
        "q", [2, 3, 5, 17, 257, 65537, 2**31 - 1, 2**61 - 1, _MR_EXACT_BELOW - 168]
    )
    @pytest.mark.parametrize("length", [0, 1, 1000])
    def test_draws_the_randrange_stream(self, q, length):
        assert _accepts(q)
        rng, reference = random.Random(q + length), random.Random(q + length)
        drawn = PrimeField(q).sample_vector(rng, length)
        assert drawn == tuple(reference.randrange(q) for _ in range(length))
        assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("length", [-3, -1, True, False, 2.0, "3", None])
    def test_bad_length_rejected(self, length):
        # a negative length would give an empty vector, and True a length-1 one
        with pytest.raises(ValueError, match="length must be an int >= 0"):
            PrimeField(5).sample_vector(random.Random(0), length)


class TestEnumeration:
    def test_elements_exactly_once(self):
        assert list(PrimeField(3).iter_vectors(1)) == [(0,), (1,), (2,)]

    def test_iter_vectors_lexicographic(self):
        field = PrimeField(2)
        assert list(field.iter_vectors(2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_iter_vectors_count(self):
        field = PrimeField(3)
        assert sum(1 for _ in field.iter_vectors(3)) == 27

    def test_iter_vectors_zero_length(self):
        assert list(PrimeField(5).iter_vectors(0)) == [()]
