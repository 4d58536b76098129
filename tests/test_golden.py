"""Byte-for-byte goldens of the command line.

Each command below runs once, in order, in one scratch directory: ``reduce``
writes the two derivation logs that ``replay`` then reads.  What is held is
the sha256 of each command's stdout, its exit code, an empty stderr, and the
sha256 of each log.  A refactor that moves one byte fails here.  A change of
output made on purpose records the digests again: a new log format, with its
version bump, or a shorter derivation in the same format (one that concludes
each fact once), without one.

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
     "4e7fe8edc00063e2ea72de3adede10a254128ac6141cc531e5cdf00fb8cf9eb0"),
    ("reduce-5-3-json", ["reduce", "--n", "5", "--r", "3", "--format", "json", "--log", "log-5-3.json"], 0,
     "4df5b565e00f2e13c3739d0fa708867bc18f26422ee2b920f35756be5b439542"),
    ("reduce-6-3", ["reduce", "--n", "6", "--r", "3", "--log", "log-6-3.json"], 0,
     "8caba2680165cbc1f15d06452d0e500f1768a75dfca0f53081b26ad9e97cabbc"),
    ("reduce-6-3-json", ["reduce", "--n", "6", "--r", "3", "--format", "json", "--log", "log-6-3.json"], 0,
     "23564ff30829913bf69bfc2d3e6048749f8e6f22641ee949da07ca6b51055074"),
    ("replay-5-3", ["replay", "--log", "log-5-3.json"], 0,
     "743d4d41a6bfa1ebf0210b73f9cfc530db23127683f25c5c3f9c93e7a0a21769"),
    ("replay-6-3", ["replay", "--log", "log-6-3.json"], 0,
     "619659ae76b5894d3e102e1ca3a1aea3a9190561d2fb6b463892d76be7c78f01"),
    ("verify-5-3-oracle-json", ["verify", "--n", "5", "--r", "3", "--with-coset-oracle", "--format", "json"], 0,
     "27e1b0509c30d03d3ec2ac4e8691c60452fa6acf4820f63005b9f5275ae9800d"),
    ("verify-6-3", ["verify", "--n", "6", "--r", "3"], 0,
     "b5ca3fb2d7e3ac9e0a5286450cb67b9d1128bbcb26a92557fc6e8f21d41c79fe"),
    ("verify-5-4-boundary", ["verify", "--n", "5", "--r", "4", "--allow-boundary"], 4,
     "33c9366138d4bdd840cb78f09b360c8de39d1b113c3d0e93328d524ed9f37291"),
]

# the logs the reduce commands leave, by file name
LOGS = {
    "log-5-3.json": "e45b2bd4d11304a5b623f1e9c0b7a210b1f859ca93316bb1f3063d7600737db6",
    "log-6-3.json": "4ac0e59a20e445add75ca860d16fe73bc3588d48ba0b14fdbb8e4b7f03fa88f6",
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
