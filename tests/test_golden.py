"""Golden bytes: the files the CLI writes for every variant are pinned by
sha256, so a refactor of lowering, initialization or BN folding that
changes a single output byte fails here."""

import hashlib

import numpy as np
import pytest

from edanet import netdef, runtime
from edanet.cli import main

# variant -> sha256 of (init --seed 42 .edaw, fold .edaw under random BN
# statistics, folded .nspec, analyze --format csv)
GOLDEN = {
    "edanet": (
        "5805ab162d85c33767b70db5ca2797336eb64652b19457dc7ce243c91184bd4b",
        "1e42868c670050548b4c393d75c44086eb38e230744f84151447ed5ac24882e0",
        "8c6d289d73cfbce14aca0dab19cda490d7af576988856b7105fad4da7a3f0f5f",
        "63aed793d11cb30ccfd5e2004d13f6c3fc8dc53a50695963f661f8e0b341e7da",
    ),
    "non_asym": (
        "797cf4058017ef5e3d6b631b98630d66eeaae9ad9f3d857fa82f5d6c2fa5327f",
        "34ca097e83f178d5e433c6db8f9cedf9b813024ccc03b26b23b284a80f733027",
        "56f46e1c7579c226cb62acc2bc7168961fec60946320e970491766d1597e6106",
        "e78cebba6c25a977bf40dea26e8863d179082fe9db1d838d7886544be130ffeb",
    ),
    "non_dense": (
        "047ea92280625190e4f5692379386c5ff0582e071a054c5bf2d896371172d0c5",
        "2cbc64153a81311df0ddfc976c501f6a0dad1ac06a9082465e282519463554b5",
        "86c63fff794278d39022557013e1bc3a84abcf923bd0de5a838bf9e70b1f7c33",
        "aa67e78c796d8080d9516f72cba5e920ef278f084e6acf7f5778c4dce934c83e",
    ),
    "shallow": (
        "cb3e5f82757d8a32b6314d54a5575e971bc6c2cca9084d3a2dc9d23a49ea2ead",
        "a70e15ebb2b4b40c0e4aa32ee66f1d26aba1738524081ffef89a5b04cd60fa91",
        "f1f6c4ba33ddc7e8ca6bc6c04542121458978d140b7cc754225ab67800737297",
        "5e64bfc1ffbad77bad36fb739af53bf605d054a431e6ba72c29bbbb16fe4d849",
    ),
    "aspp": (
        "052642259c2af62cbd8a4bf1b6b703aa25871886a594a5d732b623f63fe566ea",
        "29f165b09c0f48e4bb9471cd8ca52d8e8cb00ec2f7632d5922a50f7575276c48",
        "9a313f84f66ef9d4a33352b150cccae7143e4a7d220b38697a78a8995a8cd632",
        "4198630506d504db5eda5ea282008664b8579b4f04e66a116c9ed23192e7640a",
    ),
    "erfdec": (
        "48cfe83e1d20fba55cec3aa0a8d6e1dd91d3df1f029313283a6418f198c34cdc",
        "d23f476acf578b0c6c4495dc6cfc1a21815f715f066c35a49c256011bd79de90",
        "86301de9c97bd1845bb5bbb3a7ca31a94ed3b24632992acfc15a1ce3472ee1b1",
        "64d0f3b61a16fde763e6b7dec3ceb5cfdb1331044772337bd60e70d6f8b52dad",
    ),
    "densedown": (
        "8694bdbd1fbf877f6dbc227603d23ca9f1d9186e7c35065c33bc6fdeda064a75",
        "41129c4d38b39193365d30cdabba2feb53deb575fbe8f6a57cb8dd2d74930d91",
        "e9ea7ff2dc02d8ff9cf46e40260dfb604ced88b495daf62e2842389ecc07aab1",
        "d7cf2c4a6340f0494abf9c3a054849abf7e65d3d3554c58921673f82517adbde",
    ),
}

# variant -> sha256 of analyze --format table
GOLDEN_TABLE = {
    "edanet": "b80643e1809eba32d3cc63c8868058b4b43349770e28168af6bf332ac7d22d03",
    "non_asym": "12231e8450619f0d883b86771c68f676e3616dfff86212616cd10f0e896031ba",
    "non_dense": "c221f760e29509d30a8ae75e5510cc1192be8c111de9630a1332f1d7f1293b0b",
    "shallow": "cd9b2869c7f6bbf6b3c82cda9b694d8ebdd7471420e3e1a4b65dbc10d8a56d48",
    "aspp": "8b436085730a62f090a381e6b87c1c92130844e16a8a173aca82eb979b2c60b8",
    "erfdec": "05f32ecc93f9189affe96295c7997b35514a82a76c7f3c69c6706898f9cadc2e",
    "densedown": "f762d8ac287e52ca2a09fa62dca94ce46c3e507c7d4bad644af380b38ab7cb87",
}

_BN_SUFFIXES = (".gamma", ".beta", ".mean", ".var")


def _randomize_bn(path, seed):
    """Replace every BN tensor with seeded random values (var > 0)."""
    store = runtime.load_weights(path)
    rng = np.random.default_rng(seed)
    for name in store.names():
        if name.endswith(_BN_SUFFIXES):
            lo = 0.25 if name.endswith((".gamma", ".var")) else -0.5
            store[name] = rng.uniform(lo, lo + 1.0, len(store[name]))
    runtime.save_weights(store, path)


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(variant, tmp_path):
    nspec, edaw = tmp_path / "net.nspec", tmp_path / "w.edaw"
    fnet, fw = tmp_path / "f.nspec", tmp_path / "f.edaw"
    csv = tmp_path / "report.csv"
    assert main(["build", "--variant", variant, "--out", str(nspec)]) == 0
    assert main(["init", "--net", str(nspec), "--seed", "42", "--out", str(edaw)]) == 0
    init_sha = _sha(edaw)
    _randomize_bn(edaw, seed=7)
    assert main(["fold", "--net", str(nspec), "--weights", str(edaw),
                 "--out-net", str(fnet), "--out-weights", str(fw)]) == 0
    assert main(["analyze", "--net", str(nspec), "--format", "csv",
                 "--out", str(csv)]) == 0
    return init_sha, _sha(fw), _sha(fnet), _sha(csv)


@pytest.mark.parametrize("variant", netdef.VARIANTS)
def test_cli_outputs_are_byte_identical(variant, tmp_path):
    assert _digests(variant, tmp_path) == GOLDEN[variant]


@pytest.mark.parametrize("variant", netdef.VARIANTS)
def test_analyze_table_is_byte_identical(variant, tmp_path):
    nspec, table = tmp_path / "net.nspec", tmp_path / "report.txt"
    assert main(["build", "--variant", variant, "--out", str(nspec)]) == 0
    assert main(["analyze", "--net", str(nspec), "--format", "table",
                 "--out", str(table)]) == 0
    assert _sha(table) == GOLDEN_TABLE[variant]
