"""Golden digests of the evaluation commands and of the generated spectra.

Each command runs in-process on a small seeded spectrum, and the sha256
of its full stdout (all five table columns) is compared against a digest
recorded before the per-(spectrum, lmax) plan was introduced. The sha256
of each ``gen-spectrum`` file was recorded before the spectrum was stored
as columns (d3, d5), before the twists were drawn as whole arrays (d7,
whose 3x3 twists take the stacked QR above 2x2), or before the documents
were written from a per-class template instead of json's indent encoder
(d5-empty, a spectrum with no classes), so a shifted draw or float repr
moves it. The sha256 of ``verify --suite all --seed 0`` stdout was
recorded when the small-time combination decay check gained N = 6 and 7,
which moved only that check's max error line. The d7 factorization-check
digest was recorded before the character products shared one exponential
per distinct weight; its values are rounding residues, so a changed bit
of any product moves it. Any change
to a value, a tail bound or the table layout moves a digest; a deliberate
change of output must update the table below and say why in CHANGES.md.
"""

import hashlib

import pytest

from zetaflow.cli import main

SPECTRA = {
    "d3": ["--d", "3", "--count", "40", "--systole", "0.6", "--seed", "7"],
    "d5": ["--d", "5", "--count", "30", "--systole", "0.6", "--seed", "8",
           "--dim-chi", "2", "--chi-norm", "1.02"],
    "d7": ["--d", "7", "--count", "30", "--systole", "0.6", "--seed", "9", "--dim-chi", "3"],
    "d5-empty": ["--d", "5", "--count", "0", "--systole", "0.6", "--seed", "8",
                 "--dim-chi", "2"],
}

JOBS = {
    ("d3", "selberg"): ["selberg", "--s", "3.5", "--s", "4+1j", "--s", "2.5-0.5j"],
    ("d3", "ruelle"): ["ruelle", "--s", "4.5", "--s", "5+2j"],
    ("d3", "log-derivative"): ["log-derivative", "--s", "3.5", "--s", "3+1j"],
    ("d3", "heat-trace"): ["heat-trace", "--t", "0.05", "--t", "0.2", "--lmax", "12"],
    ("d3", "resolvent"): ["resolvent", "--anchor", "2", "--anchor", "3", "--lmax", "36",
                          "--tail-eps", "1e-5"],
    ("d3", "factorization-check"): ["factorization-check", "--s", "4.5", "--s", "5.1",
                                    "--lmax", "24", "--tail-eps", "1e-2"],
    ("d5", "selberg"): ["selberg", "--s", "4.5", "--s", "5+1j"],
    ("d5", "ruelle"): ["ruelle", "--s", "6.5", "--s", "7-1j"],
    ("d5", "log-derivative"): ["log-derivative", "--s", "4.5", "--s", "5+0.5j"],
    ("d5", "heat-trace"): ["heat-trace", "--t", "0.05", "--t", "0.2", "--lmax", "12"],
    ("d5", "resolvent"): ["resolvent", "--anchor", "3", "--anchor", "4", "--anchor", "5",
                          "--lmax", "30", "--tail-eps", "1e-5"],
    ("d5", "factorization-check"): ["factorization-check", "--s", "6.5", "--lmax", "14",
                                    "--tail-eps", "1e-2"],
    ("d7", "factorization-check"): ["factorization-check", "--s", "7.5", "--s", "8+1j",
                                    "--sigma", "1,0,0", "--lmax", "12", "--tail-eps", "1e-2"],
}

DIGESTS = {
    ("d3", "selberg"): "04b895a137a8625bb2c073c08daa7f483086d043dbfddfb3a6b846ec166dbe4b",
    ("d3", "ruelle"): "93045ef1b565463198213c8daa96c3bde3bf3d241f430c7f67e9b9b3662054ce",
    ("d3", "log-derivative"): "77ea6a5b755eff6d25c574f9e052fcb17fba757997428657897817f3b81ddb72",
    ("d3", "heat-trace"): "f75372853e32b81e14e2feeed46e5520feb9301e826f459a0d425f0e754a127f",
    ("d3", "resolvent"): "2243a2d254445dced1163800c7f13beff8a947e1c1f40cb65ec1e39a90d8f201",
    ("d3", "factorization-check"):
        "ad720151ce5a72bb0a2cf2aac573af6235085bccaa4c0776bfc5ed731016d7f6",
    ("d5", "selberg"): "7da14fd26d1df416ce4dc6bb53f90e7a2d35a4ff4739b7daee07e8c982e93335",
    ("d5", "ruelle"): "55b2066e9e806809054afeef5d58ac85f1c4997521c87086b505e904eca7651a",
    ("d5", "log-derivative"): "28e7712ec2f28e6d8c17cba9ac9e4cfea83459a4c331282935913c87c581d196",
    ("d5", "heat-trace"): "c989a12d5cfa206545fcd3dda4067366cbd2ba63d16e3a193c2d748093b56dc5",
    ("d5", "resolvent"): "3403b493f8ebcf66e2b82a70dd690a645d5b340eb6bf0573526bbf50242ecbc6",
    ("d5", "factorization-check"):
        "3b867ca51529932ea19d5feb5d0c3e4712ab646a77611a676e57d8df0eef7b44",
    ("d7", "factorization-check"):
        "bc137e51546e8a8e892b6cab926778cb3255fe3bd62c4066e5b5ecd6db639798",
}

SPECTRUM_DIGESTS = {
    "d3": "3cfb8f332befcc02f600cb611dbabd98361fc5206d19128581a936c141f29460",
    "d5": "4cb94802cf7ac5c5f15dbe22ee54056d4fea3e4e181b1788f4c7d36fbc10ad3b",
    "d7": "98d9c51627a3843c35e5f895c08e02f8c2764f5d01c38c75caaf466233cea49d",
    "d5-empty": "3b07ef524627cfb7fab7c5678c2001ff39dd0670074e586eb9061762f9a25856",
}

VERIFY_ARGS = ["verify", "--suite", "all", "--seed", "0"]
VERIFY_DIGEST = "a10847dfea9b457bb41f6f83ef1e148e1e94e9d68e78ec6ed8eabfd10a3596d5"


@pytest.fixture(scope="module")
def spectra(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, args in SPECTRA.items():
        paths[name] = root / f"{name}.json"
        assert main(["gen-spectrum", *args, "--output", str(paths[name])]) == 0
    return paths


@pytest.mark.parametrize("spec,command", sorted(DIGESTS))
def test_stdout_matches_recorded_digest(spectra, capsys, spec, command):
    capsys.readouterr()
    code = main([*JOBS[spec, command], "--spectrum", str(spectra[spec])])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == DIGESTS[spec, command]


@pytest.mark.parametrize("spec", sorted(SPECTRUM_DIGESTS))
def test_generated_spectrum_matches_recorded_digest(spectra, spec):
    digest = hashlib.sha256(spectra[spec].read_bytes()).hexdigest()
    assert digest == SPECTRUM_DIGESTS[spec]


def test_verify_stdout_matches_recorded_digest(capsys):
    capsys.readouterr()
    code = main(VERIFY_ARGS)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == VERIFY_DIGEST
