import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyaplab.linrep import (
    Representation,
    RepresentationError,
    check_relations,
    classify,
    ext_power,
    ext_subsets,
    eval_word,
    format_rep_text,
    load_rep,
    parse_rep_text,
    save_rep,
    sym_monomials,
    sym_power,
    trivial_rep,
    unitary_cube_rep,
    uniformizing_rep,
)

from conftest import random_sl2


def sl2_pair(seed):
    rng = np.random.default_rng(seed)
    return random_sl2(rng), random_sl2(rng)


class TestEvalWord:
    def test_empty_word(self, fuchs334):
        assert np.array_equal(eval_word(fuchs334, ()), np.eye(2))

    def test_word_times_inverse(self, fuchs334):
        w = (1, 2, -3, 3, 1)
        winv = tuple(-s for s in reversed(w))
        assert np.abs(eval_word(fuchs334, w + winv) - np.eye(2)).max() < 1e-10

    def test_relation_words(self, fuchs334):
        for w in fuchs334.relations:
            m = eval_word(fuchs334, w)
            assert min(np.abs(m - np.eye(2)).max(),
                       np.abs(m + np.eye(2)).max()) < 1e-9

    def test_bad_index(self, fuchs334):
        with pytest.raises(RepresentationError):
            eval_word(fuchs334, (7,))

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_homomorphism(self, seed):
        rng = np.random.default_rng(seed)
        rep = Representation(2, "real", [random_sl2(rng) for _ in range(3)], ())
        w1 = tuple(int(rng.integers(1, 4)) * int(rng.choice((-1, 1)))
                   for _ in range(int(rng.integers(0, 12))))
        w2 = tuple(int(rng.integers(1, 4)) * int(rng.choice((-1, 1)))
                   for _ in range(int(rng.integers(0, 12))))
        lhs = eval_word(rep, w1 + w2)
        rhs = eval_word(rep, w1) @ eval_word(rep, w2)
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(lhs).max())


class TestCheckRelations:
    def test_trivial_rep_zero(self, tri334):
        _, gens, rels = tri334
        rep = trivial_rep(2, len(gens), rels)
        assert check_relations(rep).max_residual == 0.0

    def test_fuchsian(self, fuchs_g2):
        assert check_relations(fuchs_g2).max_residual < 1e-9

    def test_corrupted_generator(self, tri334):
        _, gens, rels = tri334
        rep = uniformizing_rep(gens, rels)
        g = np.array(rep.generators[0])
        g[0, 0] += 1e-3
        bad = Representation(2, "real", [g, rep.generators[1], rep.generators[2]],
                             rels, "bad", projective_flag=True)
        assert check_relations(bad).max_residual > 1e-4

    def test_projective_flag_sign(self):
        rep = Representation(2, "real", [-np.eye(2)], ((1,),), projective_flag=True)
        assert check_relations(rep).max_residual < 1e-15
        rep2 = Representation(2, "real", [-np.eye(2)], ((1,),), projective_flag=False)
        assert check_relations(rep2).max_residual > 2.0

    def test_gate(self, fuchs_g2, tri334):
        assert check_relations(fuchs_g2).holds(1e-8)
        _, gens, rels = tri334
        g = np.array(uniformizing_rep(gens, rels).generators[0])
        g[0, 0] += 1e-3
        bad = Representation(2, "real", [g, gens[1].mat, gens[2].mat], rels,
                             projective_flag=True)
        assert not check_relations(bad).holds(1e-6)
        # an order-3 rotation conjugated to entries ~1e16: the absolute
        # residual fails, backward stability holds
        t = 2 * math.pi / 3
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        g = np.diag([1e8, 1e-8]) @ rot @ np.diag([1e-8, 1e8])
        twisted = Representation(2, "real", [g], ((1, 1, 1),), projective_flag=True)
        report = check_relations(twisted)
        assert report.max_residual > 1e-6 and report.holds(1e-6)

    def test_overflowed_relation_fails_gate(self):
        # g^2 overflows: inf residual, and inf / inf must not pass as 0
        rep = Representation(2, "real", [np.diag([1e200, 1e-200])], ((1, 1),))
        with np.errstate(over="ignore"):
            report = check_relations(rep)
        assert report.max_residual == math.inf
        assert report.max_relative == math.inf
        assert not report.holds(1e-6)


class TestSymPower:
    def test_monomial_order(self):
        assert sym_monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_k1_same_matrices(self, fuchs334):
        s = sym_power(fuchs334, 1)
        for a, b in zip(s.generators, fuchs334.generators):
            assert np.array_equal(a, b)

    def test_diagonal_example(self):
        lam = 1.9
        rep = Representation(2, "real", [np.diag([lam, 1 / lam])], ())
        s2 = sym_power(rep, 2)
        assert np.allclose(s2.generators[0],
                           np.diag([lam**2, 1.0, lam**-2]), atol=1e-12)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_functorial(self, seed):
        a, b = sl2_pair(seed)
        pair = Representation(2, "real", [a, b], ())
        prod = Representation(2, "real", [a @ b], ())
        lhs = sym_power(prod, 2).generators[0]
        rhs = sym_power(pair, 2).generators[0] @ sym_power(pair, 2).generators[1]
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(lhs).max())

    def test_dimension(self, fuchs334):
        assert sym_power(fuchs334, 3).n == math.comb(2 + 3 - 1, 3)

    def test_det_bookkeeping(self):
        rng = np.random.default_rng(5)
        a = random_sl2(rng)
        s = sym_power(Representation(2, "real", [a], ()), 2)
        assert abs(np.linalg.det(s.generators[0]) - 1.0) < 1e-8
        # non-unimodular: det(Sym^k A) = det(A)^(k*dim/n)
        b = a * math.sqrt(2.0)  # det 2
        s2 = sym_power(Representation(2, "real", [b], ()), 2)
        expect = 2.0 ** (2 * 3 / 2)
        assert abs(np.linalg.det(s2.generators[0]) - expect) < 1e-8 * expect


class TestExtPower:
    def test_k1_same(self, fuchs334):
        e = ext_power(fuchs334, 1)
        for a, b in zip(e.generators, fuchs334.generators):
            assert np.array_equal(a, b)

    def test_top_power_is_det(self, fuchs334):
        e = ext_power(fuchs334, 2)
        for g in e.generators:
            assert abs(g[0, 0] - 1.0) < 1e-12

    def test_minor_oracle(self):
        rng = np.random.default_rng(9)
        m = rng.normal(scale=0.4, size=(4, 4)) + 1.5 * np.eye(4)
        e = ext_power(Representation(4, "real", [m], ()), 2)
        subs = ext_subsets(4, 2)
        for i, rows in enumerate(subs):
            for j, cols in enumerate(subs):
                assert e.generators[0][i, j] == pytest.approx(
                    np.linalg.det(m[np.ix_(rows, cols)]), rel=1e-12)

    def test_functor_composition_exact(self, fuchs334):
        lhs = ext_power(sym_power(fuchs334, 1), 2)
        rhs = ext_power(fuchs334, 2)
        for a, b in zip(lhs.generators, rhs.generators):
            assert np.array_equal(a, b)

    def test_range_validation(self, fuchs334):
        with pytest.raises(ValueError):
            ext_power(fuchs334, 3)


class TestClassify:
    def test_unitary(self):
        assert classify(unitary_cube_rep()) == "unitary"

    def test_trivial_unitary(self):
        assert classify(trivial_rep(3, 2)) == "unitary"

    def test_reducible(self):
        rep = Representation(
            2, "real",
            [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[2.0, 1.0], [0.0, 0.5]])],
            ())
        assert classify(rep) == "reducible-suspected"

    def test_dihedral_elementary(self):
        rep = Representation(
            2, "real",
            [np.diag([2.0, 0.5]), np.array([[0.0, -1.0], [1.0, 0.0]])],
            ())
        assert classify(rep) == "elementary-suspected"

    def test_fuchsian_nonelementary(self, fuchs334):
        assert classify(fuchs334) == "non-elementary-suspected"


class TestUnitaryCubeRep:
    def test_relations_and_unitarity(self):
        rep = unitary_cube_rep()
        assert check_relations(rep).max_residual < 1e-9
        for g in rep.generators:
            assert np.abs(g.conj().T @ g - np.eye(2)).max() < 1e-12

    def test_matches_triangle_relations(self, tri334):
        _, _, rels = tri334
        rep = unitary_cube_rep()
        assert rep.relations == tuple(tuple(w) for w in rels)


class TestFileFormat:
    def test_round_trip_real(self, fuchs334, tmp_path):
        p = tmp_path / "f.rep"
        save_rep(fuchs334, p)
        back = load_rep(p)
        assert back.n == 2 and back.field == "real"
        assert back.relations == fuchs334.relations
        assert back.label == fuchs334.label
        for a, b in zip(back.generators, fuchs334.generators):
            assert np.array_equal(a, b)

    def test_round_trip_complex(self, tmp_path):
        rep = unitary_cube_rep()
        p = tmp_path / "u.rep"
        save_rep(rep, p)
        back = load_rep(p)
        for a, b in zip(back.generators, rep.generators):
            assert np.array_equal(a, b)
        assert back.projective_flag

    def test_bad_header(self):
        with pytest.raises(RepresentationError):
            parse_rep_text("m=2 field=real\n")

    def test_relation_index_validation(self):
        text = ("n=1 field=real projective=0 label=x\n"
                "1.0\n"
                "relations:\n"
                "2\n")
        with pytest.raises(RepresentationError):
            parse_rep_text(text)

    def test_matrix_shape_validation(self):
        text = "n=2 field=real projective=0 label=x\n1.0 2.0 3.0\nrelations:\n"
        with pytest.raises(RepresentationError):
            parse_rep_text(text)

    def test_format_is_line_oriented(self, fuchs334):
        text = format_rep_text(fuchs334)
        assert text.splitlines()[0].startswith("n=2 field=real projective=1 label=")
        assert "relations:" in text


class TestValidation:
    def test_singular_generator_rejected(self):
        with pytest.raises(RepresentationError):
            Representation(2, "real", [np.zeros((2, 2))], ())

    def test_unit_det_gate(self):
        with pytest.raises(RepresentationError):
            Representation(2, "real", [np.diag([2.0, 1.0])], (), unit_det=True)

    def test_nonfinite_rejected(self):
        with pytest.raises(RepresentationError):
            Representation(2, "real", [np.array([[np.inf, 0], [0, 1.0]])], ())
