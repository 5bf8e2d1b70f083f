"""Golden bytes: the CLI's deterministic outputs, pinned by sha256.

Every case runs in-process through ``cli.main`` and hashes the file it
wrote and, where it says something beyond "wrote", its stdout (with the
output path replaced by ``<out>``). ``classify`` and ``verify-self``
write no file; their stdout is the output. A change that alters one byte
of a scan file, a verification report, a point report or a self-check
line fails here, so "the output stays the same bytes" is a standing
check rather than a manual ``diff`` between two trees. The bisected
roots, which the files print to 12 digits only, are pinned bit for bit
from ``locate_transitions`` itself.

The digests pin this platform's libm as well as this code: ``sin``,
``cos``, ``tan`` and ``atan`` may differ in the last bit between C
libraries, and a different libm changes the bytes without any change to
the program. They were taken on x86-64 Linux (glibc) with CPython 3.11
and numpy 2.4.
"""

import hashlib

import pytest

from bisect_reference import reference_crossings
from powergeom import stability
from powergeom.cli import main
from powergeom.models import FlowKind, PowerModel
from powergeom.scan_io import read_scan
from powergeom.stability import locate_transitions, scan_diagonal, scan_grid

FLOWS = ("real", "imaginary", "complex")

#: Asymmetric box with transitions: the spike summary is part of stdout.
BOX = ["--v", "1.3", "--r0", "0.7", "--min", "-1.2", "--max", "0.9",
       "--min2", "-0.4", "--max2", "1.4", "--n", "48",
       "--spike-threshold", "1e6"]

VERIFY_1000 = ["--samples", "1000", "--seed", "5", "--v", "1.3", "--r0", "0.7"]


def _cases():
    for flow in FLOWS:
        for fmt in ("csv", "json"):
            yield (f"scan-{flow}-{fmt}",
                   ["scan", "--model", flow, "--n", "64", "--format", fmt],
                   False)
    yield ("scan-box-complex-csv", ["scan", "--model", "complex", *BOX],
           True)
    for flow in FLOWS:
        for fmt in ("csv", "json"):
            yield (f"diagonal-{flow}-{fmt}",
                   ["diagonal", "--model", flow, "--n", "401",
                    "--format", fmt], True)
    for flow in FLOWS:
        yield (f"verify-paper-{flow}",
               ["verify-paper", "--model", flow, "--samples", "50",
                "--seed", "7"], True)
    # 1000 samples span several chunks of draws (CURV_I resamples about
    # five draws per usable one)
    for flow in FLOWS:
        yield (f"verify-paper-{flow}-1000",
               ["verify-paper", "--model", flow, *VERIFY_1000], True)
    yield ("verify-paper-imaginary-1000-text",
           ["verify-paper", "--model", "imaginary", *VERIFY_1000,
            "--format", "text"], True)
    yield ("verify-self", ["verify-self"], True)
    for flow in FLOWS:
        yield (f"classify-{flow}",
               ["classify", "--model", flow, "--v", "1.3", "--r0", "0.7",
                "--a1", "0.4", "--a2", "-0.9"], True)
    yield ("classify-real-origin",
           ["classify", "--model", "real", "--a1", "0", "--a2", "0"], True)
    yield ("classify-complex-deg",
           ["classify", "--model", "complex", "--v", "1.3", "--r0", "0.7",
            "--unit", "deg", "--a1", "25", "--a2", "-40"], True)


CASES = list(_cases())

GOLDEN = {
    "scan-real-csv": {"exit": 0, "out": "5db85a1bd2d2dc50ad5cb604b0f2dd34f685df9ca976721ce513667f29a14cff"},
    "scan-real-json": {"exit": 0, "out": "e8e42599b6726453a09add990f0e5502e20cfd45bdde4fa914a99318bc17f635"},
    "scan-imaginary-csv": {"exit": 0, "out": "ef9d83181f3b24e5a349eca18205fbf342e9acd89b690b05d9a142bc37cc7443"},
    "scan-imaginary-json": {"exit": 0, "out": "87d2ace8501b4bc0213da55542b1383b5e3789d12464b2346e9ade74783751f1"},
    "scan-complex-csv": {"exit": 0, "out": "9a6f4e21f6351c00f239f3a61f5ea33d7901442059c2e37eb38e418740437942"},
    "scan-complex-json": {"exit": 0, "out": "d16f1b33fbbef2cac2b953ab75f199c8366a03f8c12e38d33b79135c2a2d932c"},
    "scan-box-complex-csv": {"exit": 0, "out": "d4caa4112c8ecdf37714618dd20b72eb2b87beff5e8560ec03399e99738018f7", "stdout": "52d93a94fc4891b6ca4cb840660c789db62e88047777895f10a2769688b811a6"},
    "diagonal-real-csv": {"exit": 0, "out": "1c63287419b8ae3ec4b9dd408ea03b3b71bf4db2fec0b1a887f44500ed0c9009", "stdout": "2fadf5d8bcb044fbbfee09aa0fb1ae2874a748596218e4a21fa37a6900017711"},
    "diagonal-real-json": {"exit": 0, "out": "ef3ec80b5f50e42447d5acd6923f9152b4ca1c066de4557d113bcaa1dd68213d", "stdout": "2fadf5d8bcb044fbbfee09aa0fb1ae2874a748596218e4a21fa37a6900017711"},
    "diagonal-imaginary-csv": {"exit": 0, "out": "f2f5cb2d2b99b1cfff23718b1bd570ed0b9ebffedac46a84111ea80f3295b075", "stdout": "4b2769b53384216c5d179f1eaded910c2dd4676ff70210018ccdc92261490353"},
    "diagonal-imaginary-json": {"exit": 0, "out": "2a6ecff1e3d2dbb45809c5dcd4e686896035f0ea28754591aff08ab9290d85f4", "stdout": "4b2769b53384216c5d179f1eaded910c2dd4676ff70210018ccdc92261490353"},
    "diagonal-complex-csv": {"exit": 0, "out": "100a1c8b2f3e5ba37547ed3697666c679102b44655e1fbe20a7d0f8c3b8f5b2c", "stdout": "3a4e678488f5590dcad8b4158bfd43fb83c3edaf64fd0d50c835cdebc0213d83"},
    "diagonal-complex-json": {"exit": 0, "out": "6e077187928dcda0c95fc7935fa9f97ac16ad89a96a5fac3a97c7e7b58de2d31", "stdout": "3a4e678488f5590dcad8b4158bfd43fb83c3edaf64fd0d50c835cdebc0213d83"},
    "verify-paper-real": {"exit": 0, "out": "695d59362c5903628b4c50bd3b9af258a5eb5d27e01b62fa984d0dabc16c27f5", "stdout": "64ccdc445dfd01840904bd363a0b1ee32a8e7c2d9a7b4d334906fa68f478c129"},
    "verify-paper-imaginary": {"exit": 0, "out": "a89b8ed9244f4deff75004d96c45fdaab9dcbb2fd3ecc0fec8cc911f9461b74e", "stdout": "7edc700193f64b2b1c42a892bde3c1936b204f7f8c5a044e3c01aa02c3b5e6e1"},
    "verify-paper-complex": {"exit": 0, "out": "e3baf81816138c2e2567b6d2c91459ef3513ca42416a38bb6a9051797d68efa2", "stdout": "64ccdc445dfd01840904bd363a0b1ee32a8e7c2d9a7b4d334906fa68f478c129"},
    "verify-paper-real-1000": {"exit": 0, "out": "b26cccf15eb2f046ac9be9860e5955c710b9798fcb1b79e4b6afa11a073c6e3c", "stdout": "a212eccf0f28a67f21dbd7edda90e5e9ed149f6bbfe0a8870b222b0e335439f9"},
    "verify-paper-imaginary-1000": {"exit": 0, "out": "506cb82f0ea4af2a1557944526e9e99e917a7b2a956f8c5bc7fc74d0e7587c0e", "stdout": "7edc700193f64b2b1c42a892bde3c1936b204f7f8c5a044e3c01aa02c3b5e6e1"},
    "verify-paper-complex-1000": {"exit": 0, "out": "25880cd7887b880a369f87c51fa56e0b20eae356230d0a86a9bf65c706e57873", "stdout": "64ccdc445dfd01840904bd363a0b1ee32a8e7c2d9a7b4d334906fa68f478c129"},
    "verify-paper-imaginary-1000-text": {"exit": 0, "out": "eb23fc379dd8ac243d14b7f2617f95f8532bce31ee37d662cd916e03c595b6d2", "stdout": "7edc700193f64b2b1c42a892bde3c1936b204f7f8c5a044e3c01aa02c3b5e6e1"},
    "verify-self": {"exit": 0, "stdout": "9cc406614fd8de02825d347ced22ca205310851c50da5d4260d1629b5909f448"},
    "classify-real": {"exit": 0, "stdout": "dca10c98125b15799468511c4e350e06b8401c51cb2da33c2ac1bd4a7150e0f1"},
    "classify-imaginary": {"exit": 0, "stdout": "b822a4da256b966b796180b9aa4cd6f2338a727002f3bf5a1ad6d7a71598ed4a"},
    "classify-complex": {"exit": 0, "stdout": "8f777c5001ac25899693217b0e343b4156ea04b99b3a10b5487197e56b455934"},
    "classify-real-origin": {"exit": 0, "stdout": "b5884c7b17048167669578a65f3339877ca2d87fbe172eb8c619cace2a73a946"},
    "classify-complex-deg": {"exit": 0, "stdout": "b78533b5012083ac7f6c95024023e5e710455c4459600bc0c46b9aba9b02cc6b"},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(argv, with_stdout, tmp_path, capsys):
    """Exit code and sha256 of the written file and of the stdout."""
    out = tmp_path / "out"
    if argv[0] not in ("verify-self", "classify"):
        argv = [*argv, "--out", str(out)]
    code = main(argv)
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    got = {"exit": code}
    if out.exists():
        got["out"] = _sha(out.read_bytes())
    if with_stdout:
        got["stdout"] = _sha(stdout.encode())
    return got


@pytest.mark.parametrize("name,argv,with_stdout", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_bytes(name, argv, with_stdout, tmp_path, capsys):
    assert digests(argv, with_stdout, tmp_path, capsys) == GOLDEN[name]


#: Every bisected determinant root, bit for bit: sha256 over one line per
#: crossing (``line``, then ``float.hex`` of ``level``, ``root``,
#: ``bracket`` and ``det_at_root``), in ``det_zeros`` order. The "grid"
#: and "diagonal" scans are at V = 1.3, R0 = 0.7 on a 64-point grid and on
#: the 401-point diagonal; the "box" scans are the 64-point grids of
#: ``ROOT_BOXES``. The scan files print roots at ``%.12g``, so a last-bit
#: change of a root shows only here.
ROOTS_GOLDEN = {
    ("real", "grid"): (356, "85d473b547cc07d0f38ae91bbf8b26289eeeeec625aa9e7fe080ad865ee63da8"),
    ("real", "diagonal"): (401, "818d0eefd026fe6b83515e80c9db39d0a57e070ffacae556964cb2416dfab629"),
    ("imaginary", "grid"): (400, "3195ebf2bef4c148934fabe7963666a05a388ca28c2c6a1c842422bf817f7e09"),
    ("imaginary", "diagonal"): (1, "1c540ebbbb3dc674f922feea387141093be29c06640e230b0208974160f2a903"),
    ("complex", "grid"): (442, "2bb93b288d162406ee2cab4a9a6a24cb2ef41fe8590d670040b4b5746b3d02b7"),
    ("complex", "diagonal"): (1, "1c540ebbbb3dc674f922feea387141093be29c06640e230b0208974160f2a903"),
    ("imaginary", "box"): (324, "a229e2485d2477f43582223ce59e3f51bf7773d39d06f480cd8a98b3a8746156"),
    ("complex", "box"): (393, "9cbbd3dceb718615704a1d3304d4c29b1c823bbfde836040780a66f390824528"),
    ("real", "box"): (69, "3d50e9258d22434a6b657d71958328693b912643d8202dc3fa7c56a0c312ec94"),
}

#: (V, R0, a1 bounds, a2 bounds) of the "box" scans. Their rows and
#: columns have different cell widths, so brackets take different numbers
#: of halvings. The imaginary box has 2 roots that miss ``det_bound``; the
#: complex box (k about 0.21) has 11 such roots and 2 exact zeros; the real
#: box has 2 exact zeros.
ROOT_BOXES = {
    "imaginary": (1.3, 0.7, (-1.5, -0.85), (-1.5, 0.4)),
    "complex": (0.6, 1.7, (0.62, 1.5), (0.81, 1.5)),
    "real": (0.6, 1.7, (-1.5, 0.3), (-0.2, 1.5)),
}


SCAN_CASES = [case for case in CASES if case[1][0] in ("scan", "diagonal")]


@pytest.mark.parametrize("name,argv", [case[:2] for case in SCAN_CASES],
                         ids=[case[0] for case in SCAN_CASES])
def test_golden_scan_files_read_back(name, argv, tmp_path):
    """Every golden scan file passes the reader's redundancy rules."""
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert len(read_scan(str(out)).rows) > 0


def roots_digest(transitions):
    """Count and sha256 of every field of every bisected root."""
    text = "".join(
        f"{z.line} {z.level.hex()} {z.root.hex()} {z.bracket.hex()} "
        f"{z.det_at_root.hex()}\n" for z in transitions.det_zeros)
    return len(transitions.det_zeros), _sha(text.encode())


def golden_scan(flow, shape):
    """The scan whose roots ``ROOTS_GOLDEN[flow, shape]`` pins."""
    if shape == "box":
        v, r0, a1_bounds, a2_bounds = ROOT_BOXES[flow]
        return scan_grid(PowerModel(FlowKind(flow), v=v, r0=r0),
                         a1_bounds, a2_bounds, n=64)
    model = PowerModel(FlowKind(flow), v=1.3, r0=0.7)
    return (scan_grid(model, n=64) if shape == "grid"
            else scan_diagonal(model, n=401))


@pytest.mark.parametrize("flow,shape", list(ROOTS_GOLDEN),
                         ids=[f"{f}-{s}" for f, s in ROOTS_GOLDEN])
def test_bisected_roots_bits(flow, shape):
    assert (roots_digest(locate_transitions(golden_scan(flow, shape)))
            == ROOTS_GOLDEN[flow, shape])


@pytest.mark.parametrize("batch_min", [0, 1 << 30],
                         ids=["every-step-batched", "every-step-per-point"])
@pytest.mark.parametrize("flow,shape", list(ROOTS_GOLDEN),
                         ids=[f"{f}-{s}" for f, s in ROOTS_GOLDEN])
def test_bisected_roots_bits_at_any_crossover(flow, shape, batch_min,
                                              monkeypatch):
    """Batched and per-point determinant steps give the same roots, from
    as many evaluations as the scalar search makes."""
    monkeypatch.setattr(stability, "BISECT_BATCH_MIN", batch_min)
    scan = golden_scan(flow, shape)
    transitions = locate_transitions(scan)
    assert roots_digest(transitions) == ROOTS_GOLDEN[flow, shape]
    assert transitions.det_evaluations == reference_crossings(scan)[1]
