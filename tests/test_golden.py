"""Byte-for-byte pins of CLI output.

The digests are SHA-256 of stdout.  Those of hwv and verify were computed
with the tuple-exponent polynomials that the packed-int representation
replaced; a change of representation or of term order must leave them as
they are.  The boundary-mode digests were computed before boundary-mode hwv
was routed through tensor_algebra.hwv_basis, so they pin that route too.
The hives and hilbert-basis digests were computed while Hive stored row
tuples, so they pin the flat storage that replaced them.
"""

import hashlib

import pytest

from hivealg.cli import run

HWV_DIGESTS = {
    # hive (degree 6, 8, 9): (text digest, JSON digest)
    "0;1,2;2,3,4;3,4,5,5;3,4,5,6,6": (
        "1e3ecff065d66c4727f9dd6117a4317e8aac368f2b409f74f4eb8d4dcf0dfa97",
        "1b2742a47acdb002d6e0e329608f56a609f3a5b7f8f8c9dfe1724e06da168a30"),
    "0;1,2;2,3,4;3,4,5,6;3,5,6,7,8": (
        "5db9dfe059712c099d26b2a238bd16aae9a335fe22c5f41d5806f7cafa737f8a",
        "9be4e01fbe119fe6cdd6c84e9af6bf2cfc54ea4a44b02a134a2e2803a3c5e51e"),
    "0;1,3;2,4,5;3,5,6,7;3,5,7,8,9": (
        "3293461bc97b7c17e44e378a53c1e09e6bfaf8a7f7901627b73ad6078b777020",
        "dcb87c508e8737e1db1549b691b8eade9eead2e66155a42fd5d9c3a36e3a098b"),
}
BOUNDARY_HWV_DIGESTS = {
    # (n, lambda, mu, nu), both with c = 2: (text digest, JSON digest)
    ("4", "3,2,1", "2,1", "2,1"): (
        "f8a572d75d03be72573de9be0f1023a56a87818221bb06a140dd0f7805cb7550",
        "b9ec514455ac86227f12e96d4be489cadce76ca5151c981c63a0cf47ab335c24"),
    ("3", "4,2,1", "2,1", "3,1"): (
        "30f3f7c7ea175547f7d675bf49e9e832ec36e278dd58fa2f7a612d8ca0c13c93",
        "649283f4c94339cc4f41155fbed916cc3ba95b2b2d1b115e7f5af3ce6d752b7e"),
}
HIVE_LIST_DIGESTS = {
    # (text digest, JSON digest)
    ("hives", "-n", "4", "--lambda", "6,4,2,1", "--mu", "4,2,1", "--nu", "3,2,1"): (
        "71ae3e6d69b1437d33d902e8b4c20a8dd69021cb4fb19b9509bc432d5cc1c7cc",
        "4e725e9383bac34d987fc3feb0dda5bd5220b98f87ae62789b9bab03b2a5ef1b"),
    ("hilbert-basis", "-n", "4", "--max-degree", "12"): (
        "09b899af180101b2278d019d95d3bbf1a0c36a5dd23b583d9d3d81a5f4d32d95",
        "03d1ecefc99465c0761968ed55e9f1a265e28f38775c807920f6e25b070a5d82"),
}
VERIFY_4_JSON_DIGEST = "0ae5fc71585108fbe1ad96708adb4517f5816a8e7e18d3c5259d81579f8e7d2c"
VERIFY_DIGESTS = {
    # rank: (text digest, JSON digest), computed from the hand-copied
    # generator table that the derivation from the basis hives replaced
    "2": ("4a95b27c347d9ad54fd77a7bb3f635878c9c72f356e57679223c2f87c2c6ac22",
          "21ba8e9add6d885daa09a68961fff886d79eea0fbbe48c608a5c7d4458ae1a72"),
    "3": ("22d51e60f0bd5d72adc85dda6cf52f2d5d6276f1940cc062b69209d5f6a5fc9e",
          "32beadfd81323145a16a52bf31c91c3b419619ae5cf72b304c4187d3b8349e75"),
    # the text digest was taken while each relation was expanded from its
    # hand-copied polynomial tail, before the tails were found by subduction
    "4": ("fde6f91a12891168da41b1cd081b6c4a409a180835686b137f1637f7c656b8cb",
          VERIFY_4_JSON_DIGEST),
}


def stdout_digest(capsys, argv):
    assert run(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("hive", sorted(HWV_DIGESTS))
def test_hwv_output_is_pinned(capsys, hive):
    text, json_digest = HWV_DIGESTS[hive]
    assert stdout_digest(capsys, ["hwv", "-n", "4", "--hive", hive]) == text
    assert stdout_digest(capsys, ["hwv", "-n", "4", "--hive", hive,
                                  "--format", "json"]) == json_digest


@pytest.mark.parametrize("boundary", sorted(BOUNDARY_HWV_DIGESTS))
def test_boundary_hwv_output_is_pinned(capsys, boundary):
    n, lam, mu, nu = boundary
    argv = ["hwv", "-n", n, "--lambda", lam, "--mu", mu, "--nu", nu]
    text, json_digest = BOUNDARY_HWV_DIGESTS[boundary]
    assert stdout_digest(capsys, argv) == text
    assert stdout_digest(capsys, argv + ["--format", "json"]) == json_digest


@pytest.mark.parametrize("argv", sorted(HIVE_LIST_DIGESTS), ids=lambda argv: argv[0])
def test_hive_list_output_is_pinned(capsys, argv):
    text, json_digest = HIVE_LIST_DIGESTS[argv]
    assert stdout_digest(capsys, list(argv)) == text
    assert stdout_digest(capsys, list(argv) + ["--format", "json"]) == json_digest


@pytest.mark.parametrize("n", sorted(VERIFY_DIGESTS))
def test_verify_output_is_pinned(capsys, n):
    text, json_digest = VERIFY_DIGESTS[n]
    assert stdout_digest(capsys, ["verify", "-n", n]) == text
    assert stdout_digest(capsys, ["verify", "-n", n, "--format", "json"]) == json_digest
