"""Binomial decay: direct route, GF route, and their agreement."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from helpers import EX3_ETA, ex3_q0_closed_form, gf_rows_rowwise, random_sparse_pmf
from photonthin import (
    InvalidParameterError,
    TargetExceedsMeanError,
    eta_for_target_lambda,
    make_pmf,
    poisson_family,
    thin_direct,
    thin_via_gf,
    tv_distance,
)
from photonthin import thinning
from photonthin.cli import wide_input

EX3 = [(1, 0.95), (1001, 0.05)]
# ex3 as a lossy decimal table: its masses sum to 1 - 1e-10.
EX3_LOSSY = [(1, 0.95), (1001, 0.0499999999)]


class TestThinDirect:
    def test_single_particle_is_bernoulli(self):
        q = thin_direct(make_pmf([(1, 1.0)]), 0.3)
        assert q.mass(0) == pytest.approx(0.7, rel=1e-14)
        assert q.mass(1) == pytest.approx(0.3, rel=1e-14)
        assert q.max_index == 1

    def test_poisson_closure(self):
        q = thin_direct(poisson_family(5.0, 1e-14), 0.02)
        assert tv_distance(q, poisson_family(0.1, 1e-14)) <= 1e-10

    @pytest.mark.parametrize("mu", [0.5, 5.0, 50.0])
    @pytest.mark.parametrize("eta", [0.001, 0.1, 0.5])
    def test_poisson_closure_grid(self, mu, eta):
        # 10x the 1e-14 truncation budget.
        q = thin_direct(poisson_family(mu, 1e-14), eta)
        assert tv_distance(q, poisson_family(eta * mu, 1e-14)) <= 1e-13

    def test_wide_two_point_against_closed_form(self):
        q = thin_direct(make_pmf(EX3), EX3_ETA)
        assert abs(q.mass(0) - ex3_q0_closed_form(EX3_ETA)) <= 1e-13

    def test_total_absorption(self):
        p = make_pmf([(2, 0.5), (9, 0.5)])
        q = thin_direct(p, 0.0)
        assert q.entries == ((0, p.total_mass),)
        assert q.tail_defect == p.tail_defect

    def test_identity_transform(self):
        p = make_pmf([(2, 0.5), (9, 0.5)])
        assert thin_direct(p, 1.0) == p

    def test_normalization_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            p = random_sparse_pmf(rng, max_index=600, max_atoms=25)
            for eta in (1e-3, 0.2, 0.8):
                q = thin_direct(p, eta)
                assert abs(math.fsum(q.masses) + q.tail_defect - 1.0) <= 1e-9

    def test_expectation_scaling(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            p = random_sparse_pmf(rng, max_index=800, max_atoms=25)
            for eta in (1e-4, 0.1, 0.9):
                q = thin_direct(p, eta)
                assert abs(q.mean - eta * p.mean) <= 1e-10 * (1.0 + p.mean)

    def test_semigroup_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            p = random_sparse_pmf(rng, max_index=300, max_atoms=15)
            eta1, eta2 = 0.4, 0.35
            once = thin_direct(p, eta1 * eta2)
            twice = thin_direct(thin_direct(p, eta1), eta2)
            assert tv_distance(twice, once) <= 1e-10

    def test_table_thins_to_weighted_sum_of_its_atoms(self):
        # Thinning is linear in the input. At eta 0.6 the atoms up to about
        # 770 start at row 0 and the others at their mode, so both starts
        # meet in one table.
        rng = np.random.default_rng(10)
        for _ in range(5):
            p = random_sparse_pmf(rng, max_index=2000, max_atoms=30)
            q = thin_direct(p, 0.6)
            mixed = {}
            for big_n, m in p.entries:
                for n, mass in thin_direct(make_pmf([(big_n, 1.0)]), 0.6).entries:
                    mixed[n] = mixed.get(n, 0.0) + m * mass
            assert max(abs(q.mass(n) - mixed.get(n, 0.0)) for n in set(mixed) | set(q.support)) <= 1e-14
            for n, mass in q.entries:
                if mass > 1e-250:
                    assert mass == pytest.approx(mixed[n], rel=1e-9)

    def test_rejects_bad_eta(self):
        with pytest.raises(InvalidParameterError):
            thin_direct(make_pmf([(1, 1.0)]), 1.2)

    def test_against_high_precision_reference(self):
        # Independent oracle: 50-digit arithmetic with exact binomials.
        import mpmath as mp

        mp.mp.dps = 50
        rng = np.random.default_rng(2026)
        for _ in range(8):
            n_atoms = int(rng.integers(2, 10))
            idx = np.sort(rng.choice(1200, size=n_atoms, replace=False))
            weights = rng.dirichlet(np.ones(n_atoms))
            pairs = [(int(i), float(w)) for i, w in zip(idx, weights)]
            p = make_pmf(pairs)
            eta = float(rng.uniform(0.001, 0.99))
            q = thin_direct(p, eta)
            picks = {0, q.max_index // 2, q.max_index}
            for n in picks:
                ref = mp.mpf(0)
                for atom, mass in pairs:
                    if atom >= n:
                        ref += (
                            mp.binomial(atom, n)
                            * mp.mpf(eta) ** n
                            * (1 - mp.mpf(eta)) ** (atom - n)
                            * mp.mpf(mass)
                        )
                ref = float(ref)
                if ref > 1e-290:
                    assert q.mass(n) == pytest.approx(ref, rel=5e-12)


class TestTruncation:
    def test_lossy_table_stops_at_its_own_total(self):
        # 50-digit mpmath: rows 0-19 leave 1.96e-15 of the table's total,
        # more than the 1e-15 slack, so the exact rule emits row 20 too.
        q = thin_direct(make_pmf(EX3_LOSSY), EX3_ETA)
        assert len(q.entries) <= 21
        assert q.tail_defect <= 1e-15

    # 50-digit mpmath at eta 0.1: rows 0-132 leave 2.8e-15 of the total and
    # rows 0-133 leave 1.3e-15, so the 1e-15 slack is reached at about 134.
    @pytest.mark.parametrize("eta,rows", [(0.1, 134), (1e-3, 13), (2e-4, 9)])
    def test_wide_input_row_counts(self, eta, rows):
        assert abs(len(thin_direct(wide_input(), eta).entries) - rows) <= 4

    def test_faint_random_tables_stay_short(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_sparse_pmf(rng, max_index=2000, max_atoms=40)
            q = thin_direct(p, eta_for_target_lambda(p, min(0.1, p.mean)))
            assert len(q.entries) <= 30
            assert abs(q.total_mass + q.tail_defect - p.total_mass) <= 1e-12

    # A light atom far beyond a heavy one, whose rows begin after many
    # rows of almost zero mass: a stall window as wide as 4 eps log(N!)
    # stopped in that gap and cut the far atom whole, 1e-9 or 3e-12 of
    # mass, into the tail defect.
    @pytest.mark.parametrize(
        ("entries", "eta"),
        [
            ([(10, 1 - 3e-12), (2000, 3e-12)], 0.3),
            ([(1, 1 - 3e-12), (2000, 3e-12)], 1e-2),
            ([(1, 1 - 1e-9), (2**20, 1e-9)], 1e-4),
        ],
        ids=["ten_and_2000", "one_and_2000", "one_and_2**20"],
    )
    def test_light_far_atom_is_not_cut(self, entries, eta):
        p = make_pmf(entries)
        direct = thin_direct(p, eta)
        assert direct.tail_defect <= 1e-15
        assert tv_distance(direct, thin_via_gf(p, eta, 1000)) <= 1e-14

    def test_defect_is_inherited_plus_cut(self):
        p = poisson_family(5.0, 1e-8)
        q = thin_direct(p, 0.3)
        assert p.tail_defect <= q.tail_defect <= p.tail_defect + 1e-14
        assert q.total_mass + q.tail_defect == pytest.approx(1.0, abs=1e-14)


class TestThinViaGf:
    def test_total_absorption(self):
        p = make_pmf([(4, 1.0)])
        q = thin_via_gf(p, 0.0, 10)
        assert q.entries == ((0, 1.0),)

    def test_identity_when_eta_one(self):
        p = make_pmf([(2, 0.25), (5, 0.75)])
        q = thin_via_gf(p, 1.0, 5)
        assert q.entries == p.entries
        assert q.tail_defect == 0.0

    def test_identity_truncates_beyond_n_max(self):
        p = make_pmf([(2, 0.25), (5, 0.75)])
        q = thin_via_gf(p, 1.0, 3)
        assert q.support == (2,)
        assert q.tail_defect == pytest.approx(0.75, rel=1e-15)

    def test_routes_agree_on_wide_two_point(self):
        p = make_pmf(EX3)
        direct = thin_direct(p, EX3_ETA)
        via_gf = thin_via_gf(p, EX3_ETA, 30)
        assert tv_distance(via_gf, direct) <= 1e-11

    def test_routes_agree_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = random_sparse_pmf(rng, max_index=400, max_atoms=20)
            eta = eta_for_target_lambda(p, min(0.1, p.mean))
            direct = thin_direct(p, eta)
            via_gf = thin_via_gf(p, eta, 40)
            assert tv_distance(via_gf, direct) <= 1e-10

    def test_lossy_table_keeps_slack_out_of_defect(self):
        q = thin_via_gf(make_pmf(EX3_LOSSY), EX3_ETA, 40)
        assert q.tail_defect <= 1e-15

    def test_wide_input_to_full_support(self):
        # The derivative itself overflows here (G^(127)(0.9) is past the
        # float range); the route must stay in log space until the end.
        p = wide_input()
        direct = thin_direct(p, 0.1)
        via_gf = thin_via_gf(p, 0.1, direct.max_index)
        assert all(math.isfinite(m) for m in via_gf.masses)
        assert via_gf.max_index == direct.max_index
        assert tv_distance(via_gf, direct) <= 1e-10

    def test_rejects_negative_n_max(self):
        with pytest.raises(InvalidParameterError):
            thin_via_gf(make_pmf([(1, 1.0)]), 0.5, -1)


class TestEtaForTargetLambda:
    def test_wide_two_point(self):
        eta = eta_for_target_lambda(make_pmf(EX3), 0.1)
        assert eta.eta == pytest.approx(0.1 / 51.0, rel=1e-13)

    def test_mean_4885_to_01(self):
        p = make_pmf([(0, 0.5), (977, 0.5)])  # mean exactly 488.5
        assert p.mean == 488.5
        assert eta_for_target_lambda(p, 48.85).eta == 0.1

    def test_no_attenuation(self):
        p = make_pmf([(3, 1.0)])
        assert eta_for_target_lambda(p, 3.0).eta == 1.0

    def test_target_above_mean_rejected(self):
        with pytest.raises(TargetExceedsMeanError):
            eta_for_target_lambda(make_pmf([(1, 1.0)]), 1.5)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(InvalidParameterError):
            eta_for_target_lambda(make_pmf([(1, 1.0)]), 0.0)

    def test_scaling_is_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = random_sparse_pmf(rng, max_index=1000, max_atoms=15)
            target = 0.25 * p.mean
            eta = eta_for_target_lambda(p, target)
            assert eta.eta * p.mean == pytest.approx(target, rel=1e-15)


def _exact_rows(p, eta: float, n_max: int) -> list[Fraction]:
    """Rows 0..n_max of ``p`` thinned at ``eta``, in exact rational arithmetic
    from the floats as given."""
    e = Fraction(eta)
    return [sum((Fraction(m) * math.comb(big_n, n) * e**n * (1 - e) ** (big_n - n)
                 for big_n, m in p.entries if big_n >= n), Fraction(0)) for n in range(n_max + 1)]


def _log_term_scale(p, eta: float, n: int) -> float:
    """Largest summed magnitude of the parts of row n's log terms: log N!,
    log (N-n)!, log p(N) + N log(1-eta) and n log(eta/(1-eta)) - log n!.
    Each is rounded once, so a row errs by about eps times this. It is at
    least log N!; far from the mode at small eta the row's constants exceed
    it (row 28 of atoms_0_1 at eta 0.05 errs by 210 eps, against
    2 eps log 30! = 149 eps)."""
    shift = abs(n * math.log(eta / (1.0 - eta)) - math.lgamma(n + 1))
    return max(math.lgamma(big_n + 1) + math.lgamma(big_n - n + 1)
               + abs(math.log(m) + big_n * math.log1p(-eta)) + shift
               for big_n, m in p.entries if big_n >= n)


# Tables whose lgamma windows, over rows 0..9, overlap (30 and 35), touch
# (30 and 40: arguments 22..31 and 32..41) or leave a gap of one (30 and 41),
# plus atoms at 0 and 1.
GF_COLUMN_TABLES = {
    "atoms_0_1": [(0, 0.25), (1, 0.25), (30, 0.5)],
    "overlap": [(30, 0.5), (35, 0.5)],
    "touch": [(30, 0.5), (40, 0.5)],
    "gap_of_one": [(30, 0.5), (41, 0.5)],
}


class TestGfColumns:
    """The GF route's atom columns, lgamma windows and row blocks, against an
    exact rational oracle and, bit for bit, against rows formed one at a time."""

    @pytest.mark.parametrize("eta", [0.05, 0.3, 0.9])
    @pytest.mark.parametrize("n_max", [0, 9, 33, 100])  # 33 lies between two atoms, 100 past all
    @pytest.mark.parametrize("table", sorted(GF_COLUMN_TABLES))
    def test_small_tables_against_exact_rows(self, table, n_max, eta):
        p = make_pmf(GF_COLUMN_TABLES[table])
        q = thin_via_gf(p, eta, n_max)
        assert list(q.entries) == gf_rows_rowwise(p, eta, n_max)
        assert q.max_index == min(n_max, p.max_index)
        for n, exact in enumerate(_exact_rows(p, eta, min(n_max, p.max_index))):
            bound = 2.0 * sys.float_info.epsilon * _log_term_scale(p, eta, n)
            assert abs(Fraction(q.mass(n)) - exact) <= bound * exact, (n, q.mass(n), float(exact))

    def test_seeded_tables_bit_equal_to_rowwise(self):
        rng = np.random.default_rng(2024)
        for _ in range(12):
            p = random_sparse_pmf(rng, max_index=2000, max_atoms=40)
            eta = eta_for_target_lambda(p, float(rng.choice([1.0, 10.0]))).eta
            for n_max in (0, int(rng.integers(1, 80)), p.max_index):
                assert list(thin_via_gf(p, eta, n_max).entries) == gf_rows_rowwise(p, eta, n_max)

    def test_row_blocks_bit_equal_to_rowwise(self, monkeypatch):
        # wide_input has 764 atoms: at eta 0.1 its 135 rows span seven blocks.
        p = wide_input()
        assert list(thin_via_gf(p, 0.1, 134).entries) == gf_rows_rowwise(p, 0.1, 134)
        rng = np.random.default_rng(5)
        tables = [make_pmf(pairs) for pairs in GF_COLUMN_TABLES.values()]
        tables += [random_sparse_pmf(rng, max_index=300, max_atoms=40) for _ in range(3)]
        expected = [gf_rows_rowwise(p, 0.3, 100) for p in tables]
        for block_terms in (1, 2, 5, 7, 64):  # blocks of one row up to a few rows
            monkeypatch.setattr(thinning, "_GF_BLOCK_TERMS", block_terms)
            assert [list(thin_via_gf(p, 0.3, 100).entries) for p in tables] == expected

    def test_rows_below_the_chernoff_start_are_not_formed(self, monkeypatch):
        # A point mass at 40 000 at eta 0.5: every term of a row below
        # 20 000 - sqrt(1492 * 20 000), about 14 537, is below e^-746, so
        # the route starts there, and emits what rows formed from 0 emit.
        p = make_pmf([(40_000, 1.0)])
        starts, columns = [], thinning._gf_columns

        def spy(atoms, rows, *rest):
            starts.append(rows.start)
            return columns(atoms, rows, *rest)

        monkeypatch.setattr(thinning, "_gf_columns", spy)
        q = thin_via_gf(p, 0.5, 21_000)
        assert starts == [math.floor(20_000 - math.sqrt(1492 * 20_000))]
        assert list(q.entries) == gf_rows_rowwise(p, 0.5, 21_000)
