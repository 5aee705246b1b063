"""Golden digests of the evaluation commands and of the generated spectra.

Each command runs in-process on a small seeded spectrum. The sha256 of
its s and value columns (the first four) is compared against a digest
recorded before the tail bounds became one geometric tail per class, so
a change to a tail bound can never hide a change to a value. The sha256
of its full stdout (all five table columns) is compared against a digest
recorded after that change, so a changed tail bound moves it. Both
digests of the d5 ``heat-trace-long`` job were recorded when the heat
trace stopped refusing times with lmax / 4t at or below |rho| + k, such
as its t = 3. The sha256 of each ``gen-spectrum`` file was recorded before the spectrum was stored
as columns (d3, d5), before the twists were drawn as whole arrays (d7,
whose 3x3 twists take the stacked QR above 2x2), or before the documents
were written from a per-class template instead of json's indent encoder
(d5-empty, a spectrum with no classes), so a shifted draw or float repr
moves it. The sha256 of ``verify --suite all --seed 0`` stdout was
recorded when the growth suite's certificate check became the per-class
tail check. Any change to a value, a tail bound or the table layout moves
a digest; a deliberate change of output must update the tables below and
say why in CHANGES.md.
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
    # lmax / 4t = 6 and 1, on both sides of |rho| + k = 2.03
    ("d5", "heat-trace-long"): ["heat-trace", "--t", "0.5", "--t", "3", "--lmax", "12"],
    ("d5", "resolvent"): ["resolvent", "--anchor", "3", "--anchor", "4", "--anchor", "5",
                          "--lmax", "30", "--tail-eps", "1e-5"],
    ("d5", "factorization-check"): ["factorization-check", "--s", "6.5", "--lmax", "14",
                                    "--tail-eps", "1e-2"],
    ("d7", "factorization-check"): ["factorization-check", "--s", "7.5", "--s", "8+1j",
                                    "--sigma", "1,0,0", "--lmax", "12", "--tail-eps", "1e-2"],
}

DIGESTS = {
    ("d3", "selberg"): "5b5201261fca01cc1f12d109d6abc9b502449fb8ecd8026f13bb9c023d0eb9bb",
    ("d3", "ruelle"): "96f355ebffa8c0b5b7d181586c1e53758733731d62bbfad77b8316d809e3ffaf",
    ("d3", "log-derivative"): "f6221e80452dca61f71bee52de4994cdc6dcfde0ed58b8abc34172a45f499b93",
    ("d3", "heat-trace"): "1ada2aa175e566b1c21bb378aee1754930f8fea101ef061af556230cc94584b2",
    ("d3", "resolvent"): "4e9b1822de76c19528325970654817a3a4de107c65f6604f023623122994d9af",
    ("d3", "factorization-check"):
        "0b2c49f166b0378e3702325ab283187b4a7e8533e671ea626bf65d080531cc0e",
    ("d5", "selberg"): "b3728de3f9bea360a483586ca0556221cb1521c369b40387f3a77d584ba3ab30",
    ("d5", "ruelle"): "578dbd1bd406818c9cc127a80903f04a60b18f396c25551d63b41fb3c292b64b",
    ("d5", "log-derivative"): "cece34b07bb32599913caab535e5b265de712d21233f00fd64bb7c4e1dc05b7f",
    ("d5", "heat-trace"): "1c440c6aef6ab2310ef9193c3a4cd89f5f4719c9e869dc72ec34afb49aa68112",
    ("d5", "heat-trace-long"): "08be6309f84cfafe57a7e2633c42391e195bb89fb79741df5b446bb97dd24288",
    ("d5", "resolvent"): "7aa586a927946d34486e8bab0c8b6c22f4594eeca00c69fb157a0b3f95f1998c",
    ("d5", "factorization-check"):
        "3c53eec87f9fce803fac0c33c19e28d4892b95531847e5b4252516df7db7467f",
    ("d7", "factorization-check"):
        "c993093cd2b5f4465a33c0836cf1024b69a280f03eec8e71b9608ed7358de488",
}

VALUE_DIGESTS = {
    ("d3", "selberg"): "e5a7bdba1173b14bf79e43f2096455ef86aded8338a2509d7c98faf85d9a7d74",
    ("d3", "ruelle"): "029e1c4afaa4d77f19ed5d41168df0eec4234ce7e39d8d528fa8a26173b1a54a",
    ("d3", "log-derivative"): "2beea7bf0e9ca3ade46273c5b8a4e1c6271f421af757af68933341a7b0373a00",
    ("d3", "heat-trace"): "a9c7b1f77b3c4a0e1ef51ae4912cf390ea108f69c94373da210502862aae8bb9",
    ("d3", "resolvent"): "a08450adcc25b37cf415f6ca1170da25b2c3ee727274d41793237653c83b1b37",
    ("d3", "factorization-check"):
        "086c13ea74b25f2865c7b1d9615448ebae44d27e8ef9de9175a7d05c0a6f1555",
    ("d5", "selberg"): "1a915f2c1e7de167d0ec45e4a456d81391902f6d12285c12648b33e9557cf159",
    ("d5", "ruelle"): "df5caabce19e9c463fe5d4dad1cc1281339eaa71fa36573d35dd09317f9d14b4",
    ("d5", "log-derivative"): "4be6242f80179a00e1f7e7935388cc6d7f099ca6f766b4a545b80c38857e42a1",
    ("d5", "heat-trace"): "de181344fde53a486d65fc1619a8f487df8c9ace421724384e3e7789e86ae390",
    ("d5", "heat-trace-long"): "bf8e36144a2acf243465b60172974d87f38941cf20543518564e30db0041e931",
    ("d5", "resolvent"): "94af99156bb7343af5dbcfa18cdec718297ea2a692540e447fae5789695b188f",
    ("d5", "factorization-check"):
        "5aa582d40d16769de7de1e2b9dd84765f6a66fdea2c9ba466f66acc922097fe0",
    ("d7", "factorization-check"):
        "49e6d8857f32cf7903ab3b37f5505b621a7078097707c31865d466379b2ea8d0",
}

SPECTRUM_DIGESTS = {
    "d3": "3cfb8f332befcc02f600cb611dbabd98361fc5206d19128581a936c141f29460",
    "d5": "4cb94802cf7ac5c5f15dbe22ee54056d4fea3e4e181b1788f4c7d36fbc10ad3b",
    "d7": "98d9c51627a3843c35e5f895c08e02f8c2764f5d01c38c75caaf466233cea49d",
    "d5-empty": "3b07ef524627cfb7fab7c5678c2001ff39dd0670074e586eb9061762f9a25856",
}

VERIFY_ARGS = ["verify", "--suite", "all", "--seed", "0"]
VERIFY_DIGEST = "7a9e2d8758e89b8018e7263f294cd19df7bca64ff96ad42f7491b39a420b4d22"


@pytest.fixture(scope="module")
def spectra(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, args in SPECTRA.items():
        paths[name] = root / f"{name}.json"
        assert main(["gen-spectrum", *args, "--output", str(paths[name])]) == 0
    return paths


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _value_columns(out: str) -> str:
    """The s and value columns of a table, as bench/checks.py digests them."""
    return "\n".join(",".join(line.split(",")[:4]) for line in out.splitlines())


@pytest.mark.parametrize("spec,command", sorted(DIGESTS))
def test_stdout_matches_recorded_digest(spectra, capsys, spec, command):
    capsys.readouterr()
    code = main([*JOBS[spec, command], "--spectrum", str(spectra[spec])])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert _sha256(_value_columns(captured.out)) == VALUE_DIGESTS[spec, command]
    assert _sha256(captured.out) == DIGESTS[spec, command]


@pytest.mark.parametrize("spec", sorted(SPECTRUM_DIGESTS))
def test_generated_spectrum_matches_recorded_digest(spectra, spec):
    digest = hashlib.sha256(spectra[spec].read_bytes()).hexdigest()
    assert digest == SPECTRUM_DIGESTS[spec]


def test_verify_stdout_matches_recorded_digest(capsys):
    capsys.readouterr()
    code = main(VERIFY_ARGS)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert _sha256(captured.out) == VERIFY_DIGEST
