"""Planted-defect tests: the gates of the normal-form residual study (A5)
fail when one coefficient of the flow or of the normal form is wrong.

Each defect is planted by a monkeypatch of one function; no tolerance
changes.  The clean run of the same config passes, so a failing verdict is
the defect's doing.
"""

import pytest

import fdkdv.flow
import fdkdv.normal_form
from fdkdv.experiments import default_residual_configs, run_normal_form_residual


def verdicts(report):
    return {c.name: c.passed for c in report.checks}


def scale_bilinear(monkeypatch):
    """B(u, v, t) off by a factor 1.0001 on both sides of the identity."""
    bilinear = fdkdv.normal_form.normal_form_bilinear

    def planted(u, v, t=0.0):
        b = bilinear(u, v, t)
        return b.with_coef(1.0001 * b.coef)

    monkeypatch.setattr(fdkdv.normal_form, "normal_form_bilinear", planted)


def scale_convection(monkeypatch):
    """The stepper's convective factor -i k / 2 off by 1%."""
    symbols = fdkdv.flow._symbols

    def planted(grid, gamma):
        lam, convect = symbols(grid, gamma)
        return lam, 1.01 * convect

    monkeypatch.setattr(fdkdv.flow, "_symbols", planted)


def weaken_damping(monkeypatch):
    """The stepper damps at 0.99 gamma; the normal-form frame keeps gamma."""
    symbols = fdkdv.flow._symbols
    monkeypatch.setattr(fdkdv.flow, "_symbols", lambda grid, gamma: symbols(grid, 0.99 * gamma))


def test_clean_run_passes():
    report = run_normal_form_residual(default_residual_configs()[0])
    assert report.passed, verdicts(report)


@pytest.mark.parametrize("plant", [scale_bilinear, scale_convection, weaken_damping],
                         ids=["bilinear_x1.0001", "convection_x1.01", "damping_x0.99"])
def test_planted_defect_fails_the_residual_gates(monkeypatch, plant):
    # clean, the residual is about 2e-7 and halves ~4x with dt; planted, it
    # is 1e-5 to 3e-3 and does not shrink (ratio about 1)
    plant(monkeypatch)
    seen = verdicts(run_normal_form_residual(default_residual_configs()[0]))
    assert not seen["residual_at_default_dt"]
    assert not seen["halving_ratio_low"]
