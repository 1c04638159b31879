"""Planted faults: each fault in a layer that the oracle battery reads fails
a pinned set of the battery's checks.

A fault is planted by monkeypatching ``surrogate.commutator_Z`` or
``surrogate._packed_ri``, the battery's two views of the model.  The pinned
sets hold only while every column of a check counts: a battery whose fold
keeps one column per check (dropping the I half of the definiteness and
off-diagonal checks and the RR and II parts of the growth bound), or that
takes the RR and II commutators at one frequency, changes a set.  This is
mutation analysis (DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978) applied to the battery itself.
"""

import numpy as np
import pytest

from mptspec import generate, surrogate, verify_identities

PROBLEMS = {"multi-mode": (8, 11), "single-mode": (2, 3, "clustered")}

_COMMUTATOR, _PACKED_RI = surrogate.commutator_Z, surrogate._packed_ri
_SKEW = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _in_commutator(which, term):
    # Z of kind `which` plus term(nu1, nu2) at every grid point; the epsilon of
    # the diagonal fault is absolute, since a single-mode Z is zero
    def planted(model, nu1, nu2=None, kind="RI"):
        z = _COMMUTATOR(model, nu1, nu2, kind=kind)
        return z + term(np.asarray(nu1), nu2) if kind == which else z

    return "commutator_Z", planted


def _in_i(shift):
    # I(nu) plus shift(I rows) in the packed (2, points, 6) grid form
    def planted(model, nu):
        ri = _PACKED_RI(model, nu).copy()
        ri[1] += shift(ri[1])
        return ri

    return "_packed_ri", planted


def _gap(nu1, nu2):
    # an antisymmetric term that grows with the frequency gap: R or I at
    # nu2 that does not commute with R or I at nu1
    return (nu2 - nu1)[:, None, None] * _SKEW


# (fault, patched name, replacement, failing checks on the multi-mode and on
# the single-mode problem)
FAULTS = [
    ("Z_RI diagonal", *_in_commutator("RI", lambda nu1, nu2: np.diag([1e-18, 0.0, 0.0])),
     {"commutator_diagonal_zero"}, {"commutator_single_mode_zero"}),
    ("Z_RR off-diagonal", *_in_commutator("RR", _gap),
     {"commutator_growth_bound"}, {"commutator_single_mode_zero"}),
    ("Z_II off-diagonal", *_in_commutator("II", _gap),
     {"commutator_growth_bound"}, {"commutator_single_mode_zero"}),
    ("I_11 shifted", *_in_i(lambda i: np.array([-1e-3 * np.abs(i).max(), 0, 0, 0, 0, 0])),
     {"assemble_vs_energy_direct", "definiteness_R_I", "rotation_equivariance"},
     {"assemble_vs_energy_direct", "definiteness_R_I", "rotation_equivariance"}),
    ("I_12 above Tr I", *_in_i(lambda i: np.outer(1.5 * i[:, :3].sum(axis=1), np.eye(6)[3])),
     {"assemble_vs_energy_direct", "definiteness_R_I", "offdiagonal_bounds",
      "rotation_equivariance"},
     {"assemble_vs_energy_direct", "definiteness_R_I", "offdiagonal_bounds",
      "rotation_equivariance"}),
]


def _failing(args) -> set[str]:
    return {c.name for c in verify_identities(generate(*args)).checks if not c.passed}


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("fault, target, planted, multi, single", FAULTS,
                         ids=[row[0] for row in FAULTS])
def test_each_fault_fails_its_pinned_checks(monkeypatch, fault, target, planted, multi,
                                            single, problem):
    monkeypatch.setattr(surrogate, target, planted)
    assert _failing(PROBLEMS[problem]) == (multi if problem == "multi-mode" else single)


def test_reports_follow_the_table():
    # 11 checks: every report holds 9, a single-mode model swaps two
    shared = ["series_vs_direct_solve", "assemble_vs_energy_direct",
              "energy_alternative_forms", "definiteness_R_I", "offdiagonal_bounds",
              "rotation_equivariance"]
    names = {problem: [c.name for c in verify_identities(generate(*args)).checks]
             for problem, args in PROBLEMS.items()}
    assert names["multi-mode"] == shared + [
        "commutator_growth_bound", "commutator_diagonal_zero", "infinite_frequency_limit"]
    assert names["single-mode"] == shared + [
        "inflection_stationary_coincidence", "commutator_single_mode_zero",
        "infinite_frequency_limit"]
    assert len(surrogate._CHECKS) == 11


def test_a_check_that_stores_nothing_raises(monkeypatch):
    # an applicable row with no violations stored never drops out silently
    monkeypatch.setattr(surrogate, "_CHECKS", surrogate._CHECKS + (("unstored", None, ""),))
    with pytest.raises(KeyError, match="unstored"):
        verify_identities(generate(*PROBLEMS["single-mode"]))
