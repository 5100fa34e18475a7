from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from volcount import exact_arith, form_families, local_invariants
from volcount.exact_arith import factor_int, is_square_rational, sqrt_mod, squarefree_part
from volcount.form_families import (
    REFERENCE_ANISOTROPIC_PRIMES,
    REFERENCE_ISOTROPIC_PRIMES,
    FamilyForm,
    certificate_matrix,
    epsilon_q_at,
    gauss_representation,
    make_q,
    make_r,
    noncommensurability_certificate,
    search_primes_anisotropic,
    search_primes_isotropic,
    two_is_fourth_power,
)
from volcount.free_groups import hall_count
from volcount.local_invariants import _odd_class, hasse_witt, odd_place


# A record with FamilyForm's fields that is not a FamilyForm.
LookAlike = namedtuple("LookAlike", "family a n")


def r_epsilon(a, n, p, root):
    """epsilon(r_a) at a witness prime p, sqrt(2) embedded as root: -sqrt(2) is the unit -root."""
    return form_families._member_epsilon(a, n, p, _odd_class(-root, p))


class TestFormConstruction:
    def test_q_shape(self):
        form = make_q(5, 4)
        assert (form.family, form.a, form.n, form.rank) == ("q", 5, 4, 5)
        assert form == FamilyForm("q", 5, 4)

    def test_r_shape(self):
        form = make_r(17, 4)
        assert (form.family, form.a, form.n, form.rank) == ("r", 17, 4, 5)
        assert form != make_q(17, 4)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_q(5, 2)
        with pytest.raises(ValueError):
            make_q(0, 4)

    @pytest.mark.parametrize(
        "family, a, n",
        [
            ("Q", 5, 4),
            ("s", 5, 4),
            ("q", 0, 4),
            ("q", -5, 4),
            ("q", Fraction(5, 2), 4),
            ("r", Fraction(1, 3), 4),
            ("q", 5, 2),
            ("r", 17, 2),
        ],
        ids=[
            "family-Q",
            "family-s",
            "a-zero",
            "a-negative",
            "a-five-halves",
            "a-one-third",
            "q-n-two",
            "r-n-two",
        ],
    )
    def test_construction_refused(self, family, a, n):
        with pytest.raises(ValueError):
            FamilyForm(family, a, n)


class TestEpsilonInvariants:
    def test_q_values_at_family_primes(self):
        assert epsilon_q_at(5, 4, 5) == -1
        assert epsilon_q_at(13, 4, 5) == 1
        assert epsilon_q_at(25, 4, 5) == 1  # even valuation cancels

    def test_q_closed_form_usage(self, monkeypatch):
        # The closed form (-2|p)^(v_p(a)) holds at every odd prime, so a
        # class-count product forced to the wrong value is caught at p = 5
        # and also at p = 3, where (-1|3) = -1, and p = 7, where (2|7) = 1.
        product = form_families._class_product
        monkeypatch.setattr(form_families, "_class_product", lambda c, p: -product(c, p))
        for a, p in ((5, 5), (13, 5), (3, 3), (5, 3), (7, 7), (9, 3)):
            with pytest.raises(RuntimeError, match="class-count product"):
                epsilon_q_at(a, 4, p)

    def test_r_values_and_root_independence(self):
        # 6 and 11 are the square roots of 2 mod 17; (-1|17) = 1, so both
        # embeddings give the same value.
        for root in (6, 11):
            assert r_epsilon(17, 4, 17, root) == -1
            assert r_epsilon(41, 4, 17, root) == 1

    @settings(max_examples=200)
    @given(
        st.sampled_from(REFERENCE_ANISOTROPIC_PRIMES),
        st.integers(min_value=3, max_value=30),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=0, max_value=3),
    )
    def test_r_matches_hasse_witt_of_embedded_coefficients(self, p, n, k, e):
        # The independent route: embed -sqrt(2) as -root, at both roots, and
        # take the generic Hasse-Witt product of the rational coefficients.
        a = k * p**e
        for root in (sqrt_mod(2, p), p - sqrt_mod(2, p)):
            expected = hasse_witt((a,) + (1,) * (n - 1) + (-root,), odd_place(p))
            assert r_epsilon(a, n, p, root) == expected

    @settings(max_examples=200)
    @given(
        st.sampled_from((3, 5, 7, 11, 13)),
        st.integers(min_value=3, max_value=30),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=0, max_value=3),
    )
    def test_q_matches_hasse_witt_of_coefficients(self, p, n, k, e):
        # The generic Hasse-Witt product of the coefficients, at every odd
        # prime: p = 3, 7, 11 are 3 mod 4, and (2|p) = 1 at p = 7.
        a = k * p**e
        expected = hasse_witt((a,) + (1,) * (n - 1) + (-2,), odd_place(p))
        assert epsilon_q_at(a, n, p) == expected

    def test_q_closed_form_cross_check_runs(self, monkeypatch):
        # epsilon(q_5) at 5 is -1; a class-count product forced to 1 must be caught.
        monkeypatch.setattr(form_families, "_class_product", lambda counts, p: 1)
        with pytest.raises(RuntimeError, match="class-count product"):
            epsilon_q_at(5, 4, 5)

    def test_r_embedded_cross_check_runs(self, monkeypatch):
        # epsilon(r_17) at 17 is -1 at both roots, 6 and 11.
        monkeypatch.setattr(form_families, "_class_product", lambda counts, p: 1)
        for root in (6, 11):
            with pytest.raises(RuntimeError, match="class-count product"):
                r_epsilon(17, 4, 17, root)

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            epsilon_q_at(0, 4, 5)

    @given(
        st.sampled_from(REFERENCE_ISOTROPIC_PRIMES),
        st.sampled_from(REFERENCE_ISOTROPIC_PRIMES),
    )
    def test_q_epsilon_detects_own_prime(self, a, p):
        assert epsilon_q_at(a, 4, p) == (-1 if a == p else 1)


# Int look-alikes at the family and count boundaries: each equals an int
# the call would accept.
LOOK_ALIKES = [
    (make_q, (True, 4)),
    (make_r, (17, 4.0)),
    (FamilyForm, ("q", 5.0, 4)),
    (epsilon_q_at, (True, 4, 5)),
    (epsilon_q_at, (5, 4, 5.0)),
    (search_primes_isotropic, (2.0,)),
    (search_primes_anisotropic, (True,)),
    (form_families.family_members, ("isotropic", 2.0, 4)),
    (hall_count, (True,)),
    (hall_count, (3.0,)),
    (gauss_representation, (True,)),
    (gauss_representation, (73.0,)),
]


@pytest.mark.parametrize(
    "function, args", LOOK_ALIKES, ids=[f"{f.__name__}{args!r}" for f, args in LOOK_ALIKES]
)
def test_int_look_alikes_are_refused(function, args):
    # Twice: a refusal is never answered from a cache.
    for _ in range(2):
        with pytest.raises(ValueError):
            function(*args)


class TestFamilyRecord:
    def test_unknown_family_name_refused(self):
        for name in ("bogus", "q", "Isotropic", None, ["isotropic"]):
            with pytest.raises(ValueError, match="the families are isotropic and anisotropic"):
                form_families.family_members(name, 2, 4)
        with pytest.raises(ValueError, match="the families are q and r"):
            FamilyForm("isotropic", 5, 4)

    def test_names_letters_and_compactness(self):
        assert form_families.FAMILY_NAMES == ("isotropic", "anisotropic")
        for name, letter, compact, reference in (
            ("isotropic", "q", False, REFERENCE_ISOTROPIC_PRIMES),
            ("anisotropic", "r", True, REFERENCE_ANISOTROPIC_PRIMES),
        ):
            assert form_families.family_name(compact) == name
            assert form_families.reference_primes(name) == reference
            primes, members = form_families.family_members(name, 6, 4)
            assert tuple(primes) == reference
            assert members == [FamilyForm(letter, p, 4) for p in reference]
            assert all(member.compact == compact for member in members)


class TestCertificates:
    def test_odd_rank_uses_epsilon(self):
        certificate = noncommensurability_certificate(make_q(5, 4), make_q(13, 4))
        assert certificate.method == "epsilon_at_prime"
        assert certificate.witness_prime == 5
        assert certificate.detail == ("-1", "1")

    def test_even_rank_uses_discriminant(self):
        certificate = noncommensurability_certificate(make_q(5, 5), make_q(13, 5))
        assert certificate.method == "discriminant_ratio"
        assert certificate.witness_prime is None
        assert certificate.detail == ("-10", "-26")

    def test_r_family(self):
        certificate = noncommensurability_certificate(make_r(17, 4), make_r(41, 4))
        assert certificate.method == "epsilon_at_prime"
        assert certificate.witness_prime == 17

    def test_even_rank_ratio_two_is_a_square_only_over_sqrt2(self):
        # 2 = sqrt(2)^2 in Q(sqrt(2)), so r_1 and r_2 share a discriminant
        # class there, while q_1 and q_2 differ over Q.
        for n in (3, 5):
            assert noncommensurability_certificate(make_r(1, n), make_r(2, n)) is None
            assert noncommensurability_certificate(make_r(1, n), make_r(8, n)) is None
            assert noncommensurability_certificate(make_r(1, n), make_r(3, n)) is not None
            certificate = noncommensurability_certificate(make_q(1, n), make_q(2, n))
            assert certificate.detail == ("-2", "-1")

    def test_same_form_gives_none(self):
        assert noncommensurability_certificate(make_q(5, 4), make_q(5, 4)) is None

    def test_mixed_families_rejected(self):
        with pytest.raises(ValueError):
            noncommensurability_certificate(make_q(5, 4), make_r(17, 4))
        with pytest.raises(ValueError):
            noncommensurability_certificate(make_q(5, 4), make_q(13, 5))

    def test_full_matrices_certified(self):
        for n in (4, 5):
            forms = [make_q(p, n) for p in REFERENCE_ISOTROPIC_PRIMES]
            for i, f1 in enumerate(forms):
                for j, f2 in enumerate(forms):
                    certificate = noncommensurability_certificate(f1, f2)
                    assert (certificate is None) == (i == j)

    def test_symbol_evaluations_do_not_grow_with_n(self, monkeypatch):
        # n - 1 coefficients share the unit class, so a certificate at
        # n = 10**6 evaluates exactly the symbols it evaluates at n = 4: the
        # two agree mod 4, so every exponent C(m, 2) and m * k of the class
        # counts has the same parity at both.
        kernel, evaluated = local_invariants._ODD_KERNEL, []
        counting = kernel._replace(symbol=lambda *args: evaluated.append(args) or kernel.symbol(*args))
        monkeypatch.setattr(local_invariants, "_ODD_KERNEL", counting)
        runs = {}
        for n in (4, 10**6):
            for make, (a1, a2) in ((make_q, (5, 13)), (make_r, (17, 41))):
                evaluated.clear()
                certificate = noncommensurability_certificate(make(a1, n), make(a2, n))
                runs[make, n] = (certificate, list(evaluated))
        for make in (make_q, make_r):
            certificate, symbols = runs[make, 4]
            assert certificate.method == "epsilon_at_prime" and 0 < len(symbols) <= 8
            assert runs[make, 10**6] == (certificate, symbols)

    def test_each_member_is_factored_once(self, monkeypatch):
        # Every certificate a member takes part in reuses the one factoring
        # that member value keeps: of a for its witness primes at odd rank,
        # of q's -2a for its discriminant at even rank (r's needs none).
        factored = []

        def counting(n):
            factored.append(n)
            return factor_int(n)

        monkeypatch.setattr(form_families, "factor_int", counting)
        monkeypatch.setattr(exact_arith, "factor_int", counting)
        for make, primes in (
            (make_q, REFERENCE_ISOTROPIC_PRIMES),
            (make_r, REFERENCE_ANISOTROPIC_PRIMES),
        ):
            for n in (3, 4, 5, 6):
                factored.clear()
                forms = [make(p, n) for p in primes]
                for f1 in forms:
                    for f2 in forms:
                        noncommensurability_certificate(f1, f2)
                if n % 2 == 0:
                    expected = list(primes)
                else:
                    expected = [-2 * p for p in primes] if make is make_q else []
                assert factored == expected, (make, n)

    @pytest.mark.parametrize("n", [3, 4], ids=["even-rank", "odd-rank"])
    def test_a_matrix_factors_each_member_once_past_the_cache_bound(self, monkeypatch, n):
        # Every row of a matrix runs through all N members, so a bounded cache
        # keyed by parameter would miss on every lookup one member past its
        # bound; each member keeps its own witness primes and discriminant.
        factored = []

        def counting(n):
            factored.append(n)
            return factor_int(n)

        _, forms = form_families.family_members("isotropic", form_families._CACHE_SIZE + 1, n)
        monkeypatch.setattr(form_families, "factor_int", counting)
        monkeypatch.setattr(exact_arith, "factor_int", counting)
        matrix = certificate_matrix(forms)
        assert all((matrix[i][j] is None) == (i == j) for i in range(len(forms)) for j in (0, i))
        assert len(factored) == len(set(factored)) == len(forms)

    def test_each_witness_root_is_computed_once(self, monkeypatch):
        # Every certificate of the r family at a witness prime p needs the
        # class of -sqrt(2) there; the root is found once per prime.
        roots = []

        def counting(u, p):
            roots.append((u, p))
            return sqrt_mod(u, p)

        monkeypatch.setattr(form_families, "sqrt_mod", counting)
        form_families._last_class.cache_clear()
        for n in (4, 6):
            certificate_matrix([make_r(p, n) for p in REFERENCE_ANISOTROPIC_PRIMES])
        assert sorted(roots) == [(2, p) for p in REFERENCE_ANISOTROPIC_PRIMES]
        # The kept class does not depend on which square root embeds sqrt(2).
        for p in REFERENCE_ANISOTROPIC_PRIMES:
            for root in (sqrt_mod(2, p), p - sqrt_mod(2, p)):
                assert form_families._last_class("r", p) == _odd_class(-root, p)

    def test_cross_check_runs_with_warm_caches(self, monkeypatch):
        # Square classes are kept, epsilons are not: a class-count product
        # forced to the wrong value is caught on pairs already certified.
        pairs = [(make_q(5, 4), make_q(13, 4)), (make_r(17, 4), make_r(41, 4))]
        for f1, f2 in pairs:
            assert noncommensurability_certificate(f1, f2) is not None
        assert epsilon_q_at(5, 4, 5) == -1
        hits = form_families._member_class.cache_info().hits
        product = form_families._class_product
        monkeypatch.setattr(form_families, "_class_product", lambda c, p: -product(c, p))
        for f1, f2 in pairs:
            with pytest.raises(RuntimeError, match="class-count product"):
                noncommensurability_certificate(f1, f2)
        with pytest.raises(RuntimeError, match="class-count product"):
            epsilon_q_at(5, 4, 5)
        assert form_families._member_class.cache_info().hits >= hits + 3

    @pytest.mark.parametrize(
        "function, args",
        [
            (noncommensurability_certificate, ("q", "q")),
            (noncommensurability_certificate, (None, make_q(5, 4))),
            (noncommensurability_certificate, (make_q(5, 4), LookAlike("q", 13, 4))),
            (certificate_matrix, ([1, 2],)),
            (certificate_matrix, ([make_q(5, 4), ("q", 13, 4)],)),
        ],
        ids=["two-strings", "none", "look-alike", "matrix-of-ints", "matrix-with-tuple"],
    )
    def test_non_forms_refused(self, function, args):
        # Refused before any cache is consulted, so a cache warmed by the
        # member a look-alike copies never answers for it.
        noncommensurability_certificate(make_q(5, 4), make_q(13, 4))
        caches = (form_families._last_class, form_families._member_class)
        before = [cache.cache_info() for cache in caches]
        for _ in range(2):
            with pytest.raises(ValueError, match="FamilyForm"):
                function(*args)
        assert [cache.cache_info() for cache in caches] == before

    @given(
        st.sampled_from(("q", "r")),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=3, max_value=8),
    )
    @example("r", 1, 3)
    def test_discriminant_description_is_coefficient_product(self, family, a, n):
        # The oracle multiplies the family member's coefficients as
        # (rational, sqrt2) pairs: (c + d r)(e + f r) with r^2 = 2.
        last = (-2, 0) if family == "q" else (0, -1)
        c, d = Fraction(a), Fraction(0)
        for e, f in [(1, 0)] * (n - 1) + [last]:
            c, d = c * e + 2 * d * f, c * f + d * e
        if family == "q":
            assert d == 0
            expected = str(squarefree_part(c))
        else:
            assert c == 0
            expected = {1: "sqrt2", -1: "-sqrt2"}.get(d, f"{d}*sqrt2")
        assert FamilyForm(family, a, n)._discriminant == expected

    def test_discriminant_ratio_is_nonsquare(self):
        # The even-rank certificate is meaningful: the ratio of the recorded
        # discriminants is not a rational square.
        certificate = noncommensurability_certificate(make_q(5, 5), make_q(13, 5))
        d1, d2 = (Fraction(value) for value in certificate.detail)
        assert not is_square_rational(d1 / d2)
        assert squarefree_part(d1 / d2) != 1


class TestPrimeSearches:
    def test_reference_lists(self):
        assert tuple(r.prime for r in search_primes_isotropic(6)) == (5, 13, 29, 37, 53, 61)
        assert tuple(r.prime for r in search_primes_anisotropic(6)) == (17, 41, 97, 137, 193, 241)
        assert REFERENCE_ISOTROPIC_PRIMES == (5, 13, 29, 37, 53, 61)
        assert REFERENCE_ANISOTROPIC_PRIMES == (17, 41, 97, 137, 193, 241)

    def test_excluded_candidates_have_representations(self):
        # 73 and 89 are primes = 1 mod 8 where 2 is a fourth power, hence
        # skipped; Gauss representations certify the exclusions.
        assert two_is_fourth_power(73) and gauss_representation(73) == (3, 1)
        assert two_is_fourth_power(89) and gauss_representation(89) == (5, 1)
        assert not two_is_fourth_power(17)
        assert gauss_representation(17) is None

    def test_count_validation(self):
        with pytest.raises(ValueError):
            search_primes_isotropic(0)

    @settings(max_examples=20)
    @given(st.integers(min_value=1, max_value=12))
    def test_prefix_stability(self, count):
        # Longer searches extend shorter ones without reordering.
        primes = [r.prime for r in search_primes_isotropic(count)]
        assert primes == [r.prime for r in search_primes_isotropic(12)][:count]
