import json
import math

import numpy as np
import pytest

from oracles import powers_up_to, twist_growth_cert_loop
from zetaflow import (
    EigenSpectrum,
    GroupData,
    TruncationPolicy,
    ValidationError,
    certify_twist_growth,
    counting_function,
    load_eigen_spectrum,
    load_length_spectrum,
    save,
    selberg_log,
    synthesize,
    validate_cert,
)
from zetaflow.spectra import (
    _PLANS_PER_SPECTRUM,
    canonicalize_angles,
    eigen_spectrum_from_dict,
    length_spectrum_from_dict,
    length_spectrum_to_dict,
)


def test_synthesize_is_reproducible(gd3):
    a = synthesize(gd3, 60, systole=0.5, seed=42)
    b = synthesize(gd3, 60, systole=0.5, seed=42)
    assert length_spectrum_to_dict(a) == length_spectrum_to_dict(b)
    c = synthesize(gd3, 60, systole=0.5, seed=43)
    assert length_spectrum_to_dict(a) != length_spectrum_to_dict(c)


def test_synthesize_basic_shape(ls3, ls3_twisted):
    assert ls3.systole >= 0.5
    lengths = [c.l0 for c in ls3.classes]
    assert lengths == sorted(lengths)
    assert all(len(c.angles) == 1 for c in ls3.classes)
    assert all(0.0 <= c.angles[0] < 2 * math.pi for c in ls3.classes)
    assert ls3_twisted.dim_chi == 2
    assert all(c.chi.shape == (2, 2) for c in ls3_twisted.classes)


def test_unit_twists_are_unitary(ls3_twisted):
    # chi_norm > 1 scales rows, so only the direction is checked here
    for c in ls3_twisted.classes:
        s = np.linalg.svd(c.chi, compute_uv=False)
        assert s.max() <= 1.2 + 1e-9
        assert s.min() > 0.5


def test_counting_function_counts_powers(ls3):
    rs = [1.0, 1.5, 2.0]
    counts = [counting_function(ls3, r) for r in rs]
    assert counts == sorted(counts)
    assert counts[0] >= 1
    # every power j*l0 <= r contributes; random lengths never sit on the cut
    manual = sum(math.floor(1.5 / c.l0) for c in ls3.classes)
    assert counting_function(ls3, 1.5) == manual
    assert counting_function(ls3, 0.0) == 0


def test_canonicalize_angles():
    got = canonicalize_angles([7.0, -1.0, 2 * math.pi])
    assert all(0.0 <= a < 2 * math.pi for a in got)
    assert got[0] == pytest.approx(7.0 - 2 * math.pi)
    assert got[1] == pytest.approx(2 * math.pi - 1.0)


def test_powers_lie_under_cutoff_and_keep_raw_angles(ls3):
    lmax = 5.0
    powers = powers_up_to(ls3, lmax)
    assert powers
    for cp in powers:
        assert cp.j >= 1
        assert cp.length <= lmax * (1 + 1e-9)
        base = ls3.classes[cp.class_index]
        assert cp.length == pytest.approx(cp.j * base.l0)
        # power angles are j times the class angles, never reduced mod 2 pi
        assert cp.angles[0] == pytest.approx(cp.j * base.angles[0])
    assert any(cp.angles[0] > 2 * math.pi for cp in powers)
    js = {}
    for cp in powers:
        js.setdefault(cp.class_index, []).append(cp.j)
    for i, seq in js.items():
        jmax = int(math.floor(lmax / ls3.classes[i].l0 * (1 + 1e-12) + 1e-12))
        assert sorted(seq) == list(range(1, jmax + 1))


def test_power_traces_match_matrix_powers(ls3_twisted):
    for cp in powers_up_to(ls3_twisted, 3.0):
        chi = ls3_twisted.classes[cp.class_index].chi
        want = np.trace(np.linalg.matrix_power(chi, cp.j))
        assert cp.chi_trace == pytest.approx(want, rel=1e-10)


def test_growth_certificate(ls3, ls3_twisted):
    for ls in (ls3, ls3_twisted):
        cert = certify_twist_growth(ls)
        assert cert.k >= 0.0
        assert cert.K >= 1.0
        assert validate_cert(cert, ls, lmax=12.0)
    # unitary twists stay bounded, so no exponential rate is needed
    assert certify_twist_growth(ls3).k == 0.0


def test_plan_certificate_matches_scalar_oracle(gd3):
    ls = synthesize(gd3, 400, systole=0.5, seed=21, dim_chi=3, chi_norm=1.3)
    for lmax in (4.0, 9.0):
        cert = certify_twist_growth(ls, lmax)
        assert cert is ls.power_table(lmax).cert
        assert cert.k > 0.0
        assert (cert.K, cert.k) == twist_growth_cert_loop(ls, lmax)
    assert ls.twist_rate == cert.k


def test_plan_cache_is_bounded_and_results_survive_eviction(gd3):
    ls = synthesize(gd3, 60, systole=0.5, seed=22, dim_chi=2, chi_norm=1.1)
    cutoffs = [6.0 + 0.25 * i for i in range(50)]

    def evaluate(lmax):
        plan = ls.power_table(lmax)
        value = selberg_log(4.0, (0,), ls, TruncationPolicy(lmax=lmax, tail_eps=1.0))
        return certify_twist_growth(ls, lmax), plan.counting_constant, plan.size, value

    first = {lmax: evaluate(lmax) for lmax in cutoffs}
    assert list(ls._plans) == cutoffs[-_PLANS_PER_SPECTRUM:]
    for lmax in cutoffs[:3]:
        assert evaluate(lmax) == first[lmax]
    assert len(ls._plans) == _PLANS_PER_SPECTRUM


def test_save_and_load_round_trip(tmp_path, ls3_twisted):
    p = tmp_path / "spec.json"
    save(ls3_twisted, p)
    back = load_length_spectrum(p)
    assert length_spectrum_to_dict(back) == length_spectrum_to_dict(ls3_twisted)
    save(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == p.read_bytes()


def test_eigen_round_trip(tmp_path):
    es = EigenSpectrum(entries=((0j, 2), (2 + 0j, 3), (4.5 + 1.0j, 1)))
    p = tmp_path / "eig.json"
    save(es, p)
    back = load_eigen_spectrum(p)
    assert back.entries == es.entries


def test_validation_of_documents():
    gd = GroupData(3)
    good = length_spectrum_to_dict(synthesize(gd, 2, systole=0.5, seed=1))
    bad = json.loads(json.dumps(good))
    bad["classes"][0]["l0"] = -1.0
    with pytest.raises(ValidationError):
        length_spectrum_from_dict(bad)
    bad = json.loads(json.dumps(good))
    bad["classes"][0]["angles"] = [0.1, 0.2]
    with pytest.raises(ValidationError):
        length_spectrum_from_dict(bad)
    bad = json.loads(json.dumps(good))
    bad["d"] = 4
    with pytest.raises(ValidationError):
        length_spectrum_from_dict(bad)
    with pytest.raises(ValidationError):
        eigen_spectrum_from_dict({"entries": [{"t": [1.0, 0.0], "m": 0}]})
    with pytest.raises(ValidationError):
        eigen_spectrum_from_dict({"entries": "nope"})


def test_missing_file_is_a_validation_error(tmp_path):
    with pytest.raises(ValidationError):
        load_length_spectrum(tmp_path / "absent.json")
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    with pytest.raises(ValidationError):
        load_eigen_spectrum(junk)


def test_synthesize_argument_validation(gd3):
    with pytest.raises(ValidationError):
        synthesize(gd3, -1, systole=0.5, seed=0)
    with pytest.raises(ValidationError):
        synthesize(gd3, 5, systole=0.0, seed=0)
    with pytest.raises(ValidationError):
        synthesize(gd3, 5, systole=0.5, seed=0, dim_chi=0)
    with pytest.raises(ValidationError):
        synthesize(gd3, 5, systole=0.5, seed=0, chi_norm=0.5)
