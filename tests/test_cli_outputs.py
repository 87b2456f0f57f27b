"""CLI output pinned byte for byte: the sha1 of the exit code and stdout of
`analyze`, `augment`, `count` and `generate` on the checked-in plans and
their models (`code_review_dispatch_plan19` holds a value its model lacks,
so its plan commands exit 1; `linked8x3_plan14` holds illegal and repeated
rows) and on `code_review` with directives of every width, of `count` on
every other checked-in model, of `generate --budget` on `code_review` and
`linked8x3` (plans the budget cuts short), of `validate` and `project` on
`linked8x3`, whose constraints link attributes four apart, and of
`instantiate` on a t=2 plan of `power_failure`, the one checked-in model
with ranges (its `big` free column is wider than 2**32, so it draws
several Mersenne Twister words per cell), and of `generate` at t=2 and t=3
on the 12x4 chain of `oracles.chain_document`, whose linked pairs cut 60 of
its 220 t=3 subsets, and of the JSON outputs of `analyze`, `generate`,
`augment` and `instantiate` on a model whose names and labels hold
characters JSON escapes (each of those is also checked to be what
`json.dumps` writes with a two-space indent).  A digest changes only with a
change to output, which CHANGES.md must declare.

To print the digests of the code under test (say, before a change that
must not alter output):

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import pathlib
import sys

import pytest

import oracles
from ctdkit import cli, row_hash

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
PLANS = {"api8x2": "api8x2_plan7", "code_review": "code_review_plan13",
         "code_review_dispatch": "code_review_dispatch_plan19",
         "manual3x3x3": "manual3x3x3_plan9", "linked8x3": "linked8x3_plan14"}
# one directive per width, one repeated at t=2, one infeasible
DIRECTIVES = [
    [("LenCBchain", "0")],
    [("InterestingCB1", "true"), ("LenCBchain", "3")],
    [("LenCBchain", "0"), ("InterestingCB2", "true")],
    [("LenCBchain", "4"), ("InterestingCB1", "false"), ("InterestingCB4", "true")],
    [("InterestingCB5", "false"), ("InterestingCB4", "false"),
     ("InterestingCB3", "true"), ("LenCBchain", "5")],
]
# its blocks do not follow declaration order
LINKED = "linked8x3"
# its values carry ranges; the fixture writes its t=2 plan
RANGED = "power_failure"
# the checked-in models with no plan of their own: `count` only
COUNTED = ["at_least_one", "model1", RANGED, "shopping", "staircase", "xyz",
           "xyz_drop_a"]
# written from `oracles.chain_document(12, 4)`: `generate` only
CHAIN = "chain12x4"
# names and labels JSON escapes: non-ASCII, '"' and '\\'; its plan's row 4
# is illegal, its results name row 5 by hash, and a range draws a number
# for `instantiate`
ESCAPED = "escaped"
ESCAPED_DOCUMENT = {
    "attributes": [
        {"name": "Café", "values": ["crème", "brûlée", "noir"]},
        {"name": "Quote", "values": ['say "hi"', "a\\b", "plain"]},
        {"name": "Path", "values": [{"label": "C:\\tmp", "range": [0, 50]},
                                    'ü\\"', "x"]},
        {"name": "Mode", "values": ["a", "b"]},
    ],
    "constraints": ["Mode = b -> Path != x", 'Mode = a -> Quote != "a\\b"'],
}
ESCAPED_ROWS = [
    ["crème", 'say "hi"', "C:\\tmp", "a"],
    ["brûlée", "a\\b", 'ü\\"', "b"],
    ["noir", "plain", "x", "a"],
    ["crème", "a\\b", "x", "b"],
    ["brûlée", 'say "hi"', "C:\\tmp", "b"],
]


def _write_inputs(directory: pathlib.Path) -> dict[str, tuple[str, str, str]]:
    """Per model name, its model, plan and results files: every third row
    of a checked-in plan FAILs, the others PASS."""
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
    model = MODELS / f"{RANGED}.json"
    plan_path = directory / f"{RANGED}_plan.csv"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["generate", str(model), "--t", "2", "-o", str(plan_path)]) == 0
    files[RANGED] = (str(model), str(plan_path), "")
    for name in COUNTED:
        files.setdefault(name, (str(MODELS / f"{name}.json"), "", ""))
    chain = directory / f"{CHAIN}.json"
    chain.write_text(json.dumps(oracles.chain_document(12, 4)), encoding="utf-8")
    files[CHAIN] = (str(chain), "", "")
    model = directory / f"{ESCAPED}.json"
    model.write_text(json.dumps(ESCAPED_DOCUMENT), encoding="utf-8")
    plan_path = directory / f"{ESCAPED}_plan.csv"
    columns = [a["name"] for a in ESCAPED_DOCUMENT["attributes"]]
    with open(plan_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([columns, *ESCAPED_ROWS])
    # row 5 is named by its content hash
    digest = row_hash(dict(zip(columns, ESCAPED_ROWS[4])), columns)
    results = directory / f"{ESCAPED}_results.csv"
    results.write_text(f"test,verdict\n1,PASS\n2,FAIL\n3,PASS\n4,PASS\n{digest},PASS\n",
                       encoding="utf-8")
    files[ESCAPED] = (str(model), str(plan_path), str(results))
    return files


def _commands() -> dict[str, tuple[str, list]]:
    """Per command id, the model name and the argument list, with `{model}`,
    `{plan}` and `{results}` for the files."""
    commands = {}
    for name in [*PLANS, "code_review_directed", *COUNTED]:
        commands[f"count-{name}"] = (name, ["count", "{model}"])
    for name in [*PLANS, "code_review_directed"]:
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
    # budget-cut plans: the redundant-row pass runs on a partial cover
    for name, t, budget in (("code_review", 2, 5), (LINKED, 3, 10)):
        for fmt in ("csv", "json"):
            commands[f"generate-{name}-t{t}-budget{budget}-{fmt}"] = (name, [
                "generate", "{model}", "--t", str(t), "--budget", str(budget),
                "--format", fmt])
    for t in (2, 3):
        commands[f"generate-{CHAIN}-t{t}-csv"] = (CHAIN, [
            "generate", "{model}", "--t", str(t), "--format", "csv"])
    commands[f"validate-{LINKED}"] = (LINKED, ["validate", "{model}"])
    commands[f"project-{LINKED}"] = (LINKED, [
        "project", "{model}", "--fix", "A0=x", "--limit", "20"])
    for seed in (1, 7):
        for fmt in ("csv", "json"):
            commands[f"instantiate-{RANGED}-seed{seed}-{fmt}"] = (RANGED, [
                "instantiate", "{model}", "{plan}", "--seed", str(seed),
                "--format", fmt, "--free", "n=1:9",
                "--free", "big=-3:1099511627776"])
    commands.update(_escaped_commands())
    return commands


def _escaped_commands() -> dict[str, tuple[str, list]]:
    """The JSON commands on the `ESCAPED` model, as `_commands` gives them."""
    commands = {}
    for t in (2, 3):
        commands[f"analyze-{ESCAPED}-t{t}-json"] = (ESCAPED, [
            "analyze", "{model}", "{plan}", "--t", str(t), "--format", "json",
            "--max-missing", "1000000"])
    commands[f"generate-{ESCAPED}-t2-json"] = (ESCAPED, [
        "generate", "{model}", "--t", "2", "--format", "json"])
    commands[f"augment-{ESCAPED}-t2-json"] = (ESCAPED, [
        "augment", "{model}", "{plan}", "{results}", "--t", "2", "--n", "3",
        "--seed", "1", "--format", "json"])
    commands[f"instantiate-{ESCAPED}-seed1-json"] = (ESCAPED, [
        "instantiate", "{model}", "{plan}", "--seed", "1", "--format", "json"])
    return commands


def _run(files, name: str, argv: list) -> tuple[int, str]:
    """The exit code and stdout of one command."""
    model, plan, results = files[name]
    argv = [a.format(model=model, plan=plan, results=results) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _digest(files, name: str, argv: list) -> str:
    code, out = _run(files, name, argv)
    return hashlib.sha1(f"exit {code}\n{out}".encode("utf-8")).hexdigest()


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
    'analyze-escaped-t2-json': '86d34986b761b1eb942e3841d0942189cad92848',
    'analyze-escaped-t3-json': '9a5bd8341fee1b7dbe99a9f79c292a2b701ce495',
    'analyze-linked8x3-t2-capped': '37c25b778ff843f49a17f2d70cc312c95463a084',
    'analyze-linked8x3-t2-csv': 'a904290be81f8a8ba31e3e02e6e200b7be4ad6aa',
    'analyze-linked8x3-t2-json': '8dcd0a9248c6119cda6cd50da23d0f04c0f255a4',
    'analyze-linked8x3-t3-csv': '535097f1a1d7024edc6c646aaa0dd2430c85de54',
    'analyze-linked8x3-t3-json': '5883c23fd1fb70561db6debcad7fd9d5730f2498',
    'analyze-manual3x3x3-t2-capped': '34819bc34bab66feb9692b6275b9df77cb6f4ec2',
    'analyze-manual3x3x3-t2-csv': '34819bc34bab66feb9692b6275b9df77cb6f4ec2',
    'analyze-manual3x3x3-t2-json': 'f6a0bc0970c3d7489d7a5f02c99b16a9eadaeaf5',
    'analyze-manual3x3x3-t3-csv': '2600b05aef45cf2609ff8a13249049b406faf77c',
    'analyze-manual3x3x3-t3-json': '9c6e6f169daf7b074e65ff5ef48d92e90c4c2ccf',
    'augment-api8x2-t2-csv': 'fcd3d9fef839384c4a9ae1f0ba0c7abdebcaae99',
    'augment-api8x2-t2-json': '28bc3f326e99e37533028f1d2b88697ea2b1698e',
    'augment-api8x2-t3-csv': '8578947687820ac4167a48b6361802fb5b53b24f',
    'augment-api8x2-t3-json': 'd5325173fae8b8f131578b4d284b49ae288eefb8',
    'augment-code_review-t2-csv': '1a348ad4b13cc2a0cdd005e5583e9b5b6d38d5e2',
    'augment-code_review-t2-json': '36f180b08c98d12308a55c2128384efdaeb2a9dd',
    'augment-code_review-t3-csv': '03eee5b441ea27aa508d090d979112176ac7e935',
    'augment-code_review-t3-json': 'dabd868a63bd8def8f5b2d55886c9cbe2592440b',
    'augment-code_review_directed-t2-csv': '1a348ad4b13cc2a0cdd005e5583e9b5b6d38d5e2',
    'augment-code_review_directed-t2-json': '3fd8b0981f9742182e367fbc968cbabfe7a10f17',
    'augment-code_review_directed-t3-csv': '03eee5b441ea27aa508d090d979112176ac7e935',
    'augment-code_review_directed-t3-json': 'db216bf3143635b79b145c9be2005a858dce1fd2',
    'augment-code_review_dispatch-t2-csv': '960afd59ce22e55124cff418eb90c3b1c39651ec',
    'augment-code_review_dispatch-t2-json': '960afd59ce22e55124cff418eb90c3b1c39651ec',
    'augment-code_review_dispatch-t3-csv': '960afd59ce22e55124cff418eb90c3b1c39651ec',
    'augment-code_review_dispatch-t3-json': '960afd59ce22e55124cff418eb90c3b1c39651ec',
    'augment-escaped-t2-json': 'f96a84433acc9f69943d519ae7ae09621c53c332',
    'augment-linked8x3-t2-csv': 'c5e90d4c90a30b49ce93cbf6f7e49d54b023c1ae',
    'augment-linked8x3-t2-json': 'a880a1f874b87df88fc4670ce6c6423d4c3d82c8',
    'augment-linked8x3-t3-csv': '430b503b6b096e1c919a7644174c74bb8f0db9cc',
    'augment-linked8x3-t3-json': 'efb8db5a202b13cf7c686f4c41dd0b369d602314',
    'augment-manual3x3x3-t2-csv': '1cf335dee1ad207d425086552febfcc871567a4f',
    'augment-manual3x3x3-t2-json': 'c4046868882f1aa024af1f5bba16d92c60c24770',
    'augment-manual3x3x3-t3-csv': 'de41c7b86d80eb31b8723eafc24a7b85c6ec047c',
    'augment-manual3x3x3-t3-json': '2d922aa24106185a5e842678b00690941bbfee9a',
    'count-api8x2': '4f5908c2f34cbe324c3ca3f1c7c3a85f3c3d44c8',
    'count-at_least_one': '771c2dd7d1241c79df477c605c1148910c296e82',
    'count-code_review': '39ce095672d1f3292f8ef24c0457bb53481a20d7',
    'count-code_review_directed': '3cbd3a17bc7b794108e482e739af1a1e1a623594',
    'count-code_review_dispatch': '6426682f51a3c9b31d0919338e870b33d36699f2',
    'count-linked8x3': '62953934689f668a316581b2138640b51b127076',
    'count-manual3x3x3': 'b04f55637af38a2ebb3c3090d4aac91a4ae270a1',
    'count-model1': 'e9023f5beae17d74bc6caab2fa6733b302112959',
    'count-power_failure': '5baa704b8b2a843de7782bc21107f2423a0f93c4',
    'count-shopping': '2919bc2b42b85dfab0ddd6d4adb355c5f332abd0',
    'count-staircase': 'b287bcaa6a569f160a62bd0059952243384e3bfb',
    'count-xyz': '7f59771c99ebffcf8f701f9034068130022595dd',
    'count-xyz_drop_a': 'eba715ce8e6c2d4467479ad15f3bae5a1986ff2d',
    'generate-api8x2-t2-csv': 'f32d7f197b055ce8b2d67b2259505684ff0686c6',
    'generate-api8x2-t2-json': 'ffd000d08fd155e396abc99e92f51dc06fcd6fad',
    'generate-api8x2-t3-csv': 'c90fc4104694f09741a07d6455cc6835bd88bc3d',
    'generate-api8x2-t3-json': '6d4c40c0fa80497d58165bb7fb949af00bad75da',
    'generate-chain12x4-t2-csv': '68784e3576797f1bf5f1ffef36ffdccae51f128d',
    'generate-chain12x4-t3-csv': '2ef15487072ce59383bfd17bfe56a4c979504859',
    'generate-code_review-t2-budget5-csv': '31b9ca11fca6168819524ec9c1244313e475f253',
    'generate-code_review-t2-budget5-json': 'd67f07d7993e7faf97e4e6f949626b257ca8cf56',
    'generate-code_review-t2-csv': 'b982914a63e61a80404183881f4f5e645d2ce5f1',
    'generate-code_review-t2-json': '07e83194753acf81b1edb023a5fa2bbecb799f79',
    'generate-code_review-t3-csv': '034b20d8b0f98d9ee9002306b2a33eb482daf34a',
    'generate-code_review-t3-json': 'f410810bea543aeec96b4da72b2a5e13cec80f0e',
    'generate-code_review_directed-t2-csv': '106a88c37e8b84a831561846032bdf143bed8a93',
    'generate-code_review_directed-t2-json': 'fe08cbe09211d6613a12e51e50d45720ab04fc1a',
    'generate-code_review_directed-t3-csv': '433c5730752011bc2803ee16909a42ed9fcd4694',
    'generate-code_review_directed-t3-json': 'b1cd9627d53973bda9a15fb388c2c2cb4af74286',
    'generate-code_review_dispatch-t2-csv': 'd23ab164458813e4838322936ad01eebcb10497c',
    'generate-code_review_dispatch-t2-json': 'c5f078d30eca161419fb68a5da0e182b777c939b',
    'generate-code_review_dispatch-t3-csv': '9e5e84d89641e00c06edfde08673903a40e2f0c9',
    'generate-code_review_dispatch-t3-json': 'f120eeaedd07fc5be5a0693693cb88f687b38e24',
    'generate-escaped-t2-json': '443145ab1a53d74f6ba16711a9db939fcea55fe3',
    'generate-linked8x3-t2-csv': '0018ace128d2ea71ed4044e074c13a9bc092f750',
    'generate-linked8x3-t2-json': 'b6c9503ea461e7dd63fbdada92b69afc1499d23f',
    'generate-linked8x3-t3-budget10-csv': '7b6cc179759ef2aa4f89abf307bb4d6c5158c947',
    'generate-linked8x3-t3-budget10-json': 'a14bd88bb2e300b60beb390d56b825532ab39368',
    'generate-linked8x3-t3-csv': '7b85ba8c528cfb70ae0cea67b2ef6914d4f1f1bc',
    'generate-linked8x3-t3-json': '4a81680156387b4c4cf1888e659ddd281c63954f',
    'generate-manual3x3x3-t2-csv': 'f89e6bacb707d486cd6df60ae1083e91f403bc81',
    'generate-manual3x3x3-t2-json': 'fe7b3ccd37d872eb758576771c3c864c57e110c3',
    'generate-manual3x3x3-t3-csv': 'd9f447b835a44af362900acec3d436a1ca8c54d9',
    'generate-manual3x3x3-t3-json': '94e1d58004366c08d20a302047d494a9c948b1aa',
    'instantiate-escaped-seed1-json': '5498542c505e3d5fc19af7978e95d98cfe6b1c74',
    'instantiate-power_failure-seed1-csv': '83ffd1929bc13b59f75aa80ea19322b689eed830',
    'instantiate-power_failure-seed1-json': '336644f308c8269e5cdb06fcc80fdfda4dc7e3f0',
    'instantiate-power_failure-seed7-csv': 'b7f48bdc80b07b95e733a245809cbc3e5263f54c',
    'instantiate-power_failure-seed7-json': '0cb7f9b210216c0f9cf9be5703b1f35c86c85963',
    'project-linked8x3': '777385aac53023985dfe78bf67f4b324ad7044ee',
    'validate-linked8x3': '6f6c11307582cd359c447342be51ea0600a371fa',
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("cli_outputs"))


@pytest.mark.parametrize("command", sorted(_commands()))
def test_cli_output_is_byte_identical(files, command):
    name, argv = _commands()[command]
    assert _digest(files, name, argv) == DIGESTS[command]


@pytest.mark.parametrize("command", sorted(_escaped_commands()))
def test_escaped_json_output_is_what_json_dumps_writes(files, command):
    name, argv = _escaped_commands()[command]
    code, out = _run(files, name, argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        found = _write_inputs(pathlib.Path(scratch))
        for command, (name, argv) in sorted(_commands().items()):
            print(f"    {command!r}: {_digest(found, name, argv)!r},")
    sys.exit(0)
