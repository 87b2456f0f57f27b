"""CLI output pinned byte for byte: the sha1 of the exit code and stdout of
`analyze`, `augment`, `count` and `generate` on the checked-in plans and
their models (`code_review_dispatch_plan19` holds a value its model lacks,
so its plan commands exit 1), and on `code_review` with directives of every
width.  A digest changes only with a change to output, which CHANGES.md
must declare.

To print the digests of the code under test (say, before a change that
must not alter output):

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from ctdkit import cli

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
PLANS = {"api8x2": "api8x2_plan7", "code_review": "code_review_plan13",
         "code_review_dispatch": "code_review_dispatch_plan19",
         "manual3x3x3": "manual3x3x3_plan9"}
# one directive per width, one repeated at t=2, one infeasible
DIRECTIVES = [
    [("LenCBchain", "0")],
    [("InterestingCB1", "true"), ("LenCBchain", "3")],
    [("LenCBchain", "0"), ("InterestingCB2", "true")],
    [("LenCBchain", "4"), ("InterestingCB1", "false"), ("InterestingCB4", "true")],
    [("InterestingCB5", "false"), ("InterestingCB4", "false"),
     ("InterestingCB3", "true"), ("LenCBchain", "5")],
]


def _write_inputs(directory: pathlib.Path) -> dict[str, tuple[str, str, str]]:
    """Per model name, its model, plan and results files: every third row
    of a plan FAILs, the others PASS."""
    document = json.loads((MODELS / "code_review.json").read_text(encoding="utf-8"))
    document["directives"] = [[{"attr": a, "value": v} for a, v in d]
                              for d in DIRECTIVES]
    directed = directory / "code_review_directed.json"
    directed.write_text(json.dumps(document), encoding="utf-8")
    files = {}
    for name, plan in [*PLANS.items(), ("code_review_directed", "code_review_plan13")]:
        model = directed if name == "code_review_directed" else MODELS / f"{name}.json"
        plan_path = MODELS / f"{plan}.csv"
        rows = len(plan_path.read_text(encoding="utf-8").splitlines()) - 1
        results = directory / f"{name}_results.csv"
        results.write_text("test,verdict\n" + "".join(
            f"{i},{'FAIL' if i % 3 == 0 else 'PASS'}\n" for i in range(1, rows + 1)),
            encoding="utf-8")
        files[name] = (str(model), str(plan_path), str(results))
    return files


def _commands() -> dict[str, tuple[str, list]]:
    """Per command id, the model name and the argument list, with `{model}`,
    `{plan}` and `{results}` for the files."""
    commands = {}
    for name in [*PLANS, "code_review_directed"]:
        commands[f"count-{name}"] = (name, ["count", "{model}"])
        for t in (2, 3):
            for fmt in ("csv", "json"):
                commands[f"analyze-{name}-t{t}-{fmt}"] = (name, [
                    "analyze", "{model}", "{plan}", "--t", str(t), "--format", fmt,
                    "--max-missing", "1000000"])
                commands[f"generate-{name}-t{t}-{fmt}"] = (name, [
                    "generate", "{model}", "--t", str(t), "--format", fmt])
                commands[f"augment-{name}-t{t}-{fmt}"] = (name, [
                    "augment", "{model}", "{plan}", "{results}", "--t", str(t),
                    "--n", "3", "--seed", "1", "--format", fmt])
        commands[f"analyze-{name}-t2-capped"] = (name, [
            "analyze", "{model}", "{plan}", "--t", "2", "--max-missing", "2"])
    return commands


def _digest(files, name: str, argv: list) -> str:
    model, plan, results = files[name]
    argv = [a.format(model=model, plan=plan, results=results) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return hashlib.sha1(f"exit {code}\n{out.getvalue()}".encode("utf-8")).hexdigest()


DIGESTS = {
    'analyze-api8x2-t2-capped': '7479336c1b7241e151047c1c4042ab5e36891f8b',
    'analyze-api8x2-t2-csv': '7479336c1b7241e151047c1c4042ab5e36891f8b',
    'analyze-api8x2-t2-json': '7d669c2c455892e7410476fee3d5cc929d5b042b',
    'analyze-api8x2-t3-csv': 'd8fa4d2d856495f7d6ba48922c0b6db0fbaa34c6',
    'analyze-api8x2-t3-json': '244825363d10d5627b504fa29a9c06eb2c1c38c6',
    'analyze-code_review-t2-capped': '319fb4e1dfbaade59c2a6d9bd302cac5a4d182af',
    'analyze-code_review-t2-csv': '319fb4e1dfbaade59c2a6d9bd302cac5a4d182af',
    'analyze-code_review-t2-json': 'd2e95d46d07f5bc1afbdef730f9b75d0c362736f',
    'analyze-code_review-t3-csv': 'fc9292243f6c557991bbc9cb9a88ee91779fc3ee',
    'analyze-code_review-t3-json': 'ff5434b81ab609a838d8977eef2fe6b415927a8f',
    'analyze-code_review_directed-t2-capped': '0308d303b9a47d5c23bc4e43b92ec5c3f4c88a9e',
    'analyze-code_review_directed-t2-csv': '0308d303b9a47d5c23bc4e43b92ec5c3f4c88a9e',
    'analyze-code_review_directed-t2-json': 'e9e9eb9af7b7b4bc5d5a706b6864271921202c04',
    'analyze-code_review_directed-t3-csv': '2198a9349ea7cc65fb0cbe93e4f6a1ff665bc76f',
    'analyze-code_review_directed-t3-json': 'ea1931a1449a48c07a5e3f7147296a5934645bb0',
    'analyze-code_review_dispatch-t2-capped': '960afd59ce22e55124cff418eb90c3b1c39651ec',
    'analyze-code_review_dispatch-t2-csv': '960afd59ce22e55124cff418eb90c3b1c39651ec',
    'analyze-code_review_dispatch-t2-json': '960afd59ce22e55124cff418eb90c3b1c39651ec',
    'analyze-code_review_dispatch-t3-csv': '960afd59ce22e55124cff418eb90c3b1c39651ec',
    'analyze-code_review_dispatch-t3-json': '960afd59ce22e55124cff418eb90c3b1c39651ec',
    'analyze-manual3x3x3-t2-capped': '34819bc34bab66feb9692b6275b9df77cb6f4ec2',
    'analyze-manual3x3x3-t2-csv': '34819bc34bab66feb9692b6275b9df77cb6f4ec2',
    'analyze-manual3x3x3-t2-json': 'f6a0bc0970c3d7489d7a5f02c99b16a9eadaeaf5',
    'analyze-manual3x3x3-t3-csv': '2600b05aef45cf2609ff8a13249049b406faf77c',
    'analyze-manual3x3x3-t3-json': '9c6e6f169daf7b074e65ff5ef48d92e90c4c2ccf',
    'augment-api8x2-t2-csv': '5d16ec8d0c58907cc235329c9c53afa887a490e1',
    'augment-api8x2-t2-json': '1ee8f9cdfdddc80850dce4fc3ccad5431e1db383',
    'augment-api8x2-t3-csv': '8578947687820ac4167a48b6361802fb5b53b24f',
    'augment-api8x2-t3-json': 'cb5dc596eb73eb10ef7a19e6b507775fa3d3725c',
    'augment-code_review-t2-csv': '1a348ad4b13cc2a0cdd005e5583e9b5b6d38d5e2',
    'augment-code_review-t2-json': '3a3c5d749750809fe35ea9f7344252933652473c',
    'augment-code_review-t3-csv': '03eee5b441ea27aa508d090d979112176ac7e935',
    'augment-code_review-t3-json': '5e7fa8fb06f899cb95978d00456eaff1d9c49a32',
    'augment-code_review_directed-t2-csv': '1a348ad4b13cc2a0cdd005e5583e9b5b6d38d5e2',
    'augment-code_review_directed-t2-json': 'df780f9cd7e67019b1dadb121a0056929ec71668',
    'augment-code_review_directed-t3-csv': '03eee5b441ea27aa508d090d979112176ac7e935',
    'augment-code_review_directed-t3-json': '2391aac9baa9e7c538312195e129aae8e59fff17',
    'augment-code_review_dispatch-t2-csv': '960afd59ce22e55124cff418eb90c3b1c39651ec',
    'augment-code_review_dispatch-t2-json': '960afd59ce22e55124cff418eb90c3b1c39651ec',
    'augment-code_review_dispatch-t3-csv': '960afd59ce22e55124cff418eb90c3b1c39651ec',
    'augment-code_review_dispatch-t3-json': '960afd59ce22e55124cff418eb90c3b1c39651ec',
    'augment-manual3x3x3-t2-csv': '1cf335dee1ad207d425086552febfcc871567a4f',
    'augment-manual3x3x3-t2-json': 'dc897ddfe3bf4f19cf4a503161788f6c9d6fd133',
    'augment-manual3x3x3-t3-csv': 'de41c7b86d80eb31b8723eafc24a7b85c6ec047c',
    'augment-manual3x3x3-t3-json': 'c19a483e77a502a4b692c8cc1cb282d4beb28160',
    'count-api8x2': '4f5908c2f34cbe324c3ca3f1c7c3a85f3c3d44c8',
    'count-code_review': '39ce095672d1f3292f8ef24c0457bb53481a20d7',
    'count-code_review_directed': '3cbd3a17bc7b794108e482e739af1a1e1a623594',
    'count-code_review_dispatch': '6426682f51a3c9b31d0919338e870b33d36699f2',
    'count-manual3x3x3': 'b04f55637af38a2ebb3c3090d4aac91a4ae270a1',
    'generate-api8x2-t2-csv': 'a6e187526689f06013dfdc84d3f20fe321acd2ae',
    'generate-api8x2-t2-json': 'd3382307d7c6382351a9478e4dafe93fc8c56a00',
    'generate-api8x2-t3-csv': 'f01d394205a177e85cc06da9d9006197981d8b61',
    'generate-api8x2-t3-json': '906e5a55e8f489531d20768f2965be59abc06ff4',
    'generate-code_review-t2-csv': 'fd36fe1b65ec64eed52a66e7171374e06368b8e9',
    'generate-code_review-t2-json': '96420b31a56cae7a66ef5ecff8bf6fc72934f8e5',
    'generate-code_review-t3-csv': '291d10d5d15a8a08dfbbbff25f860814a00fc14a',
    'generate-code_review-t3-json': '9a08367e64f58a9e586b17964386b9572dbc3a6d',
    'generate-code_review_directed-t2-csv': '4e00debf6308438d99c06fee7687d69f68a6e369',
    'generate-code_review_directed-t2-json': '7757f500911452d64598dc7eae6d18db29c0bf38',
    'generate-code_review_directed-t3-csv': '291d10d5d15a8a08dfbbbff25f860814a00fc14a',
    'generate-code_review_directed-t3-json': 'f5f52b50d3c36aa37cecae10925d9d81652e38fe',
    'generate-code_review_dispatch-t2-csv': 'ac75c13734f2008629d4218648a99698173ed7cc',
    'generate-code_review_dispatch-t2-json': '06bf17de2555a6c2bf9300f2cfd0dc26bc2f1e9f',
    'generate-code_review_dispatch-t3-csv': '050007cd46ee0157027e8f8d28d917b08297ab0e',
    'generate-code_review_dispatch-t3-json': 'f4e911e75018d1b4c3e496f5ccd3934c8a1ab191',
    'generate-manual3x3x3-t2-csv': '6af54453cc299fd8022a946c1c8c44fc36cd4308',
    'generate-manual3x3x3-t2-json': 'fdf2fb2b48e3fbe90bed4c62d90cd002c4e2c7bc',
    'generate-manual3x3x3-t3-csv': 'd9f447b835a44af362900acec3d436a1ca8c54d9',
    'generate-manual3x3x3-t3-json': '94e1d58004366c08d20a302047d494a9c948b1aa',
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("cli_outputs"))


@pytest.mark.parametrize("command", sorted(_commands()))
def test_cli_output_is_byte_identical(files, command):
    name, argv = _commands()[command]
    assert _digest(files, name, argv) == DIGESTS[command]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        found = _write_inputs(pathlib.Path(scratch))
        for command, (name, argv) in sorted(_commands().items()):
            print(f"    {command!r}: {_digest(found, name, argv)!r},")
    sys.exit(0)
