"""Golden SHA-256 hashes of the CLI outputs for every representation x
learner combination.

A small generated set (3 categories x 10 views x 150 points) goes through
`protocol` and a 3-fold `cv` per combination. Any change to the numbers a
learner computes moves at least one hash. On a set this small two
combinations share a protocol log, but every confusion matrix differs, so
the nine cases still pin nine distinct behaviours.

spinset/instance is pinned under both ICD normalizations, A2 (the
default) and A1. `protocol --context-change` is pinned separately, on a
set whose context split the teacher crosses, and so is the saved instance
memory of a spinset/instance protocol.
"""

import hashlib
import json

import pytest

from openobj.cli import load_dataset, main
from openobj.evaluation import run_protocol
from openobj.pipelines import ExperimentConfig, build_learner_from_pool

SMALL = ("--voxel", "0.02", "--dictionary-size", "20", "--topics", "8", "--gibbs-iters", "5")

# (representation, learner): (protocol_log.jsonl, metrics.json, confusion.csv)
GOLDEN = {
    ("good", "instance"): (
        "8d934683291a9b10fa4a5c2be7e3d52382701e220bb43faacf319abf6087f11a",
        "cc41d5509b66cb989d2313e62c11927864384a697a75370d15d3ba6135d0238b",
        "f44ae86ca06894e26f0856e57f4435e02dc32b28386f2ecb797ae00320c1f26e",
    ),
    ("good", "bayes"): (
        "5fa9273235e6da6f66337cf9376c9a0647d70eee7fc8dd82d1955e7179bab943",
        "b9322d8e5c261ce97cd06417dd59c5ab163a4271a8ebeed88e1f7d98e8a4abff",
        "4b5f4de5368485f7c6a50edd2ec2bb08062085a0a76bf7a18ce09023c10d4851",
    ),
    ("spinset", "instance"): (
        "7556299fbb6010c874ac815110015bf85c7d33b80e97facce027f103d7cd3363",
        "fea3f42b6d1ed42a43ed1296f23fbbc1eb5bf214f40f45c1b5ecb64bce0fb5d6",
        "ffded977e0ccd02b22cc889b8b5c3e374aeb0f8a0537c5932730d928dc4dc6a8",
    ),
    ("bow", "instance"): (
        "0c255b88d4302e6c3dbafda01e4f2bf8695122d54a92631c6ff373bd23564e89",
        "f6f2cd096dc7588afba82ee84dc3049e935a2aba4dc693a008176381a69b33a6",
        "7d86ea46f9023eed8e3776968bb7c3540b5bcbeec4282a2f3065b58e01e9430e",
    ),
    ("bow", "bayes"): (
        "7556299fbb6010c874ac815110015bf85c7d33b80e97facce027f103d7cd3363",
        "62a4f8d1425d464a2388f9e61b158955c18be447cfd289ab9639d9785c6d64de",
        "3b0353b4e304773a75809d289b7ca3035855b590fdf1b251550aa936fb1efddd",
    ),
    ("lda", "instance"): (
        "bb4fac64fad9b3a05a1839a6e28835b6f2ca3881c0e2a8582a3be6e8bd2703fb",
        "8bdf2a11382fb4ffaf7f8198b74ca9b1e49db9b87670475b8eaa1b35eb0afca0",
        "3b7f462ca23849b4f5f50ce9d4296ab1c79718fb1fcb0a0ecb3ddf5dada15709",
    ),
    ("lda", "bayes"): (
        "ec050fb6814667cc6e4375ccfcd94dab754e3e0988e341403636aadda719f64f",
        "05021a1c957f6da9be6bf67cf4eb299c86020a4d05eb4efeb81024b299f2f3b7",
        "11a8cf60467b4710233ad49070ad5395b3c2fcc47c09a8d75266020c937f09fd",
    ),
    ("local_lda", "instance"): (
        "0be38e3ffe342551aba13fd10072d54a67366a94deedea3af5b55ff65ca11fe8",
        "44fe339a41883c5f0e55d324761fedb2aadeabca71b368205689d90e5ee8e2d9",
        "9180d0a8137225097cab6c6a6cc05c81dfcacd6bc589a56018a191c83e82dc29",
    ),
    ("local_lda", "bayes"): (
        "61f44c32581f08b5dca35921828794a785350936f54ddc083c056934791a3671",
        "9dfd3145b5bdc6bcf458777c0aff932efe93dfdea5cc9ac5fd60f01250e5f20c",
        "61b2378134aa53089a0837c089c4fe82b8a971320fbf80f5dd15ef1baa31a6c6",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    cfg = root / "gen.cfg"
    cfg.write_text("categories = 3\nviews = 10\npoints = 150\n")
    data = root / "data"
    assert main(["gen", "--out-dir", str(data), "--seed", "1", "--config", str(cfg)]) == 0
    return data


def protocol_and_cv_hashes(dataset, out, *combo) -> tuple:
    """The hashes of protocol_log.jsonl, metrics.json and confusion.csv."""
    assert main(["protocol", str(dataset), "--out-dir", str(out / "p"),
                 "--seed", "1", *combo]) == 0
    assert main(["cv", str(dataset), "--out-dir", str(out / "cv"),
                 "--seed", "1", "--folds", "3", *combo]) == 0
    return (
        sha256(out / "p" / "protocol_log.jsonl"),
        sha256(out / "cv" / "metrics.json"),
        sha256(out / "cv" / "confusion.csv"),
    )


@pytest.mark.parametrize("representation,learner", list(GOLDEN))
def test_cli_outputs_match_golden(golden_dataset, tmp_path, representation, learner):
    combo = ("--representation", representation, "--learner", learner, *SMALL)
    got = protocol_and_cv_hashes(golden_dataset, tmp_path, *combo)
    assert got == GOLDEN[representation, learner]


# spinset/instance scores by A2 above; these pin the same runs under A1,
# and all three differ from A2's.
NOCD_A1 = (
    "d998c0e0f89a43d6c92f499e7fba56a6e48721bcc54d2b6119dfe689dc70ef07",
    "f963c30332e370fb6f31f681721469dd18231d11f8d0aaa7eb9f2ceda3748538",
    "ea0c85b7167fc9ff07a1c505987500d5988c06b375a56b1446054467a41e315d",
)


def test_a1_outputs_match_golden(golden_dataset, tmp_path):
    combo = ("--representation", "spinset", "--learner", "instance", "--nocd-mode", "A1", *SMALL)
    assert protocol_and_cv_hashes(golden_dataset, tmp_path, *combo) == NOCD_A1


# Context-change runs on a 5-category split set (3 in context A, 2 in B):
# (representation, learner, switch): (protocol_log.jsonl, summary.json).
# With rho = 2 the teacher reaches the switch and introduces both B
# categories; --alc 5 samples rho = 4, past the three A categories.
CONTEXT_GOLDEN = {
    ("good", "instance", ("--rho", "2")): (
        "14a702f2faae845412ebbfc9f11e6757fdfcb0c5d6c8deaac27e08f6cb749ff9",
        "37bf7815adc012e305332bea08ecbbbbadd78b269fc4479e995ff2dd6f6c91af",
    ),
    ("bow", "bayes", ("--rho", "2")): (
        "cf6d961c7128f4e6036250de82aa099e38d8c2ed5cbb5b6f23ef6267eeb4fdca",
        "cba00c12b67a25878982e1b62c3d922cbb9b8f6c54df5178d860ac43179ee867",
    ),
    ("spinset", "instance", ("--rho", "2")): (
        "87004b00be958cd68561aa84031db7d06cb6ebbaee0353405075f217fbedf0f1",
        "ed22699adc1cb1d371ebaad71e320007078fbf8f74be7e8dfe9a44cb0d0a8523",
    ),
    ("good", "instance", ("--alc", "5")): (
        "1960bbc0fdd5d3ca7872a9ad3ab37fbd390782c0a0e6d83b79916faef0634df6",
        "83d96350bd837410a0c12b025333c0ba2eee75720915404267f0f84350497737",
    ),
}


@pytest.fixture(scope="module")
def context_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_ctx")
    cfg = root / "gen.cfg"
    cfg.write_text("categories = 5\nviews = 15\npoints = 150\n")
    data = root / "data"
    assert main(["gen", "--out-dir", str(data), "--seed", "2", "--config", str(cfg),
                 "--context-split"]) == 0
    return data


@pytest.mark.parametrize("representation,learner,switch", list(CONTEXT_GOLDEN))
def test_context_change_outputs_match_golden(context_dataset, tmp_path, representation,
                                             learner, switch):
    out = tmp_path / "p"
    assert main(["protocol", str(context_dataset), "--context-change", *switch,
                 "--seed", "1", "--voxel", "0.02", "--dictionary-size", "20",
                 "--representation", representation, "--learner", learner,
                 "--out-dir", str(out)]) == 0
    got = (sha256(out / "protocol_log.jsonl"), sha256(out / "summary.json"))
    assert got == CONTEXT_GOLDEN[representation, learner, switch]


# SHA-256 of json.dumps(memory.to_json_dict(), sort_keys=True) after a
# seed-0 spinset/instance protocol on the golden set: the saved form of an
# InstanceMemory, {"categories": {label: {"label", "instances"}}}, with
# spin-image counts saved as integers.
INSTANCE_MEMORY = "3e6aa9c832e52a8e9bdc932a2ee188e8370727e57f14316647ede72da30088b9"


def test_saved_instance_memory_matches_golden(golden_dataset):
    dataset = load_dataset(str(golden_dataset))
    config = ExperimentConfig(representation="spinset", voxel=0.02)
    clouds = [cloud for views in dataset.views.values() for cloud in views]
    learner = build_learner_from_pool(config, clouds)
    run_protocol(dataset, learner, seed=0)
    text = json.dumps(learner.memory.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == INSTANCE_MEMORY
