import pytest
import scipy.constants

from primepot.units import ATOM_MASS_KG, CONSTANTS, PhysicalContext, energy_scale

HBAR = CONSTANTS["hbar_J_s"]


def test_constants_match_scipy():
    # exact, not approx: a scipy on a newer CODATA edition should fail here
    assert CONSTANTS["h_J_s"] == scipy.constants.h
    assert CONSTANTS["hbar_J_s"] == scipy.constants.hbar
    assert CONSTANTS["k_B_J_per_K"] == scipy.constants.k
    assert CONSTANTS["atomic_mass_kg"] == scipy.constants.physical_constants["atomic mass constant"][0]


def test_identity_configuration():
    ctx = PhysicalContext(mass=HBAR**2, l=1.0, L=1.0)
    assert energy_scale(ctx).joule == pytest.approx(1.0)


def test_quadratic_scaling_in_length():
    base = PhysicalContext(mass=ATOM_MASS_KG["rb87"], l=10.0, L=4e-4)
    half = PhysicalContext(mass=ATOM_MASS_KG["rb87"], l=10.0, L=2e-4)
    assert energy_scale(half).joule == pytest.approx(4.0 * energy_scale(base).joule, rel=1e-12)


def test_round_trip_physical_dimensionless():
    ctx = PhysicalContext.for_atom("rb87", l=15.0, L=3e-4)
    scale = energy_scale(ctx).joule
    e_dimless = 13.0
    assert e_dimless * scale / scale == pytest.approx(e_dimless, rel=1e-15)


def test_rb87_anchor_scale():
    # ratio tuned so the scale reproduces the published h x 0.029 Hz figure
    mass = ATOM_MASS_KG["rb87"]
    ratio = (0.029 * CONSTANTS["h_J_s"] * mass) ** 0.5 / HBAR
    ctx = PhysicalContext(mass=mass, l=ratio, L=1.0)
    assert energy_scale(ctx).h_hz == pytest.approx(0.029, rel=1e-12)


def test_depth_in_picokelvin_for_designed_wells(prime10_potential, prime15_potential):
    # with the anchor scales, the designed well depths land on the published
    # 47 pK and 69 pK trap depths
    kb = CONSTANTS["k_B_J_per_K"]
    h = CONSTANTS["h_J_s"]
    depth10_pk = (prime10_potential.asymptote - prime10_potential.min()) * 0.029 * h / kb * 1e12
    depth15_pk = (prime15_potential.asymptote - prime15_potential.min()) * 0.026 * h / kb * 1e12
    assert depth10_pk == pytest.approx(47.0, abs=1.0)
    assert depth15_pk == pytest.approx(69.0, abs=1.0)


def test_reports_all_three_forms():
    ctx = PhysicalContext.for_atom("rb87", l=10.0, L=5e-4)
    payload = energy_scale(ctx).as_dict()
    assert set(payload) == {"scale_J", "scale_hHz", "scale_kBK"}


def test_unknown_atom_rejected():
    with pytest.raises(ValueError, match="unknown atom"):
        PhysicalContext.for_atom("unobtainium", l=1.0, L=1.0)


def test_invalid_context_rejected():
    with pytest.raises(ValueError):
        PhysicalContext(mass=-1.0, l=1.0, L=1.0)
