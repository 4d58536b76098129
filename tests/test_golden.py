"""Byte-for-byte goldens of the command line.

Each command below runs once, in order, in one scratch directory: ``reduce``
writes the two derivation logs that ``replay`` then reads.  What is held is
the sha256 of each command's stdout, its exit code, an empty stderr, and the
sha256 of each log.  A refactor that moves one byte fails here.  A change of
output made on purpose (a new log format, with its version bump) records
the digests again.

CI runs this file a second and a third time under fixed ``PYTHONHASHSEED``
values, so output shown not to depend on hash order stays that way.
"""

import contextlib
import hashlib
import io
import os

import pytest

from igmax.cli import main

P = "{{1},{2,3,5},{4,7},{6}}"
A = "{1,4,5,6}"

# name, argv, exit code, sha256 of stdout
COMMANDS = [
    ("stats-6-3", ["stats", "--n", "6", "--r", "3"], 0,
     "68d1f893d5b1012046056a4fc91458d6b14bc7524d6b0b872b90f4eaa7929d9b"),
    ("stats-6-3-json", ["stats", "--n", "6", "--r", "3", "--format", "json"], 0,
     "d059d608490e0e6959df4f5dd0fef6bbb33a31cc116e8b1225340d9b275d3479"),
    ("label", ["label", "--P", P, "--A", A], 0,
     "aa5e920febca690f998b69157670e063ac8d45a2fa3a31d96dc33e5651e959fd"),
    ("label-json", ["label", "--P", P, "--A", A, "--format", "json"], 0,
     "f7ea5e9b6c4be4612a5f8e30c2263569e27ded3a8cc24757838134d46f1714b2"),
    ("squares-5-3", ["squares", "--n", "5", "--r", "3"], 0,
     "73e79ba0cb2140407974558ec2fbc936a9e4b4c1ade5f0648cc3eb3bf6125622"),
    ("squares-5-3-singular", ["squares", "--n", "5", "--r", "3", "--only-singular"], 0,
     "42a6992e0cb0c6e9eb148319aea5716739506a721e28b2f7330d533dca7d863b"),
    ("present-5-3", ["present", "--n", "5", "--r", "3"], 0,
     "05ee58fb9e313c3f872503888817c7992a74b240f55e0470a489f7833fbf5f0b"),
    ("present-5-3-json", ["present", "--n", "5", "--r", "3", "--format", "json"], 0,
     "a29800f72b927d7300a5a2fb24492e12fa77e6abe0cbb1ea717ba4ccd3663761"),
    ("present-5-3-bottom", ["present", "--n", "5", "--r", "3", "--family", "bottom"], 0,
     "a01d119a581cde3e78d1c6ed4b590e0b9c743d0349cfdd12da127d8e9f5f746e"),
    ("reduce-5-3", ["reduce", "--n", "5", "--r", "3", "--log", "log-5-3.json"], 0,
     "80bc01db9976f06d45daa717f9bea35b8cc7a4deab42437e52bfb88643ff4f86"),
    ("reduce-5-3-json", ["reduce", "--n", "5", "--r", "3", "--format", "json", "--log", "log-5-3.json"], 0,
     "e7d611fcc9f33b656ceed28174444c44a5f5bed5a6c147e4b7880db543ec87aa"),
    ("reduce-6-3", ["reduce", "--n", "6", "--r", "3", "--log", "log-6-3.json"], 0,
     "7ab43092e44b56ffedd7b5f37d3c103804077ee60e6f74e12fc1a76a35efb38c"),
    ("reduce-6-3-json", ["reduce", "--n", "6", "--r", "3", "--format", "json", "--log", "log-6-3.json"], 0,
     "37588680877efff61c4a7b39d4f635cee0253e1200516be7839ded383d665649"),
    ("replay-5-3", ["replay", "--log", "log-5-3.json"], 0,
     "e3fea63244a00abc9814396464b0bfa275f72a50b0798d36ad80ca58248dfff0"),
    ("replay-6-3", ["replay", "--log", "log-6-3.json"], 0,
     "76788adae38225d384ec3c6b06f812258a1cc857185b3454fe6e5bf2de269a96"),
    ("verify-5-3-oracle-json", ["verify", "--n", "5", "--r", "3", "--with-coset-oracle", "--format", "json"], 0,
     "1386914a6e4771a25e8130e92507154cb6e4ce9756df39407770daaf307f35b0"),
    ("verify-6-3", ["verify", "--n", "6", "--r", "3"], 0,
     "b5ca3fb2d7e3ac9e0a5286450cb67b9d1128bbcb26a92557fc6e8f21d41c79fe"),
    ("verify-5-4-boundary", ["verify", "--n", "5", "--r", "4", "--allow-boundary"], 4,
     "33c9366138d4bdd840cb78f09b360c8de39d1b113c3d0e93328d524ed9f37291"),
]

# the logs the reduce commands leave, by file name
LOGS = {
    "log-5-3.json": "ffef7498a849c9088bc12f26e3355552601447d9fe1ef3f648a6436a119cb8ba",
    "log-6-3.json": "d0343e6381242724dac6c9e02046302ad7e75066742032af08c4da4a26181f0a",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every command in order; map each name to (exit code, stdout
    digest, stderr) and each log's file name to its digest."""
    workdir = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        got = {}
        for name, argv, _, _ in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            got[name] = (code, sha256(out.getvalue().encode()), err.getvalue())
        for name in LOGS:
            got[name] = sha256((workdir / name).read_bytes())
        return got
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name,argv,code,digest", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_command_output_is_golden(outputs, name, argv, code, digest):
    assert outputs[name] == (code, digest, "")


@pytest.mark.parametrize("name", sorted(LOGS))
def test_log_is_golden(outputs, name):
    assert outputs[name] == LOGS[name]
