"""Pinned PageRank, PageRank-Delta, Radii, SSSP and BC plans on the
dataset analogs.

The plan of an application run is memoized by its trace and cell keys,
which name the app, dataset and scale but not the engine or the code
that ran it.  Trace pins only see the representative super-step, so an
extra PageRank iteration or a Radii round that ends one step later moves
nothing but ``total_edges``.  These pins cover the whole run: the round
count, the work total, the representative step, every super-step's
active set and the output vector's bytes, under both the numpy reference
and the compiled graph kernels (``REPRO_GRAPH_ENGINE``).  A kernel that
adds in a different order changes a rank's last bit and fails them.
SSSP (on the weighted analog) and BC run from the first root the
experiment pipeline picks, and their steps digests also cover each
super-step's ``write_fraction``: SSSP's counts the improved relaxations,
which a compiled relaxation must reproduce.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.apps import make_app
from repro.graph import fastgraph
from repro.graph.generators import NO_SKEW_DATASETS, SKEWED_DATASETS, load_dataset
from repro.pipeline import CellPipeline, ExperimentConfig

SCALE = 0.25
DATASETS = tuple(SKEWED_DATASETS + NO_SKEW_DATASETS)
ROOT_APPS = ("SSSP", "BC")
APPS = ("PR", "PRD", "Radii", *ROOT_APPS)
ENGINES = (
    "reference",
    pytest.param(
        "fast",
        marks=pytest.mark.skipif(
            not fastgraph.fast_available(), reason="no C compiler for the graph kernels"
        ),
    ),
)

#: ``(rounds, total_edges, representative, steps sha256, output sha256)``
#: of :func:`run_app`: rounds are PR/PRD ``iterations``, Radii and SSSP
#: ``rounds`` and BC's BFS ``depth``; the steps digest covers each
#: super-step's direction, edge count and active ids (plus the Radii
#: samples, and SSSP/BC write fractions); the output digest covers the
#: ``ranks``/``radii``/``distances``/``dependencies`` bytes.
PINNED = {
    ("kr", "PR"): (12, 980064, 0, "8b30c19e7f9715154ea2ba9fa6e70d3439928c4c5659d72bb44d8edb5fc8a37d", "e7394a0025df926fb46514d06dda213404df668f8710d3af8c6a8ed982bb42e8"),
    ("kr", "PRD"): (17, 1311294, 1, "ded1e506229d264597a10a7b2a30380a14d5eddd6e7945ffb253b681139fea5a", "4c369d0a331f3295a70da71d7cb2399d64e3de0e25c7feb31244c4d213a550ce"),
    ("kr", "Radii"): (6, 490032, 0, "61da2b037b26a7b98b9092f2082624a90da1b628a1177b8a4d38b8e9bb514bf5", "f3bf01dd8bf036f657521e00c86c1e44def4035545532de2d25d80d590dbcad4"),
    ("kr", "SSSP"): (9, 194109, 2, "6f6d22baf1f16ed25584ff3306377f92ee5dc8d11db89df98b69b0875c669ddc", "400307b6c09af31f5e4ad3d0b63f25b7c2704a9dc3470085c4c59943685ca64a"),
    ("kr", "BC"): (4, 98915, 2, "c9cfe4ae19882d13b344043fe4cba17fa513db89d04d2f256cf3e6a6bf8895d0", "b3950a1b83bfba20c660f2b090337509f04359749c976b2b9ba45eb9e447d01b"),
    ("pl", "PR"): (14, 666092, 0, "6edf2551f1eacd199b6a1a0b3923e2c43df22c7a9e3f800e5278b979bfcd1210", "43997fd5542dae7710e1cb6e06156adc37a7c53a54f342556a62b81aee213997"),
    ("pl", "PRD"): (18, 782300, 1, "f1f9bdf30a3025ffef33ed966773868c7aa66b633794230f6be7a410c5e19401", "b424baf6ded83ae3097f73b55a6ae635e48e408e6a7ee6eb5bc6fb7c3b84b154"),
    ("pl", "Radii"): (7, 333046, 0, "22526bdd1ae7ff652a73ddcdeccd874caf7777d4304dacccf4b3cc971275bb88", "0cc189abdf1e5fd70627e47f0bdff72a990a19b658334d2bf4ff4d74bca7d9ae"),
    ("pl", "SSSP"): (11, 148760, 3, "96e7d9f5dafb2978558d9371d2b5c12d6fa44d3a8ce90a59b534d1e88cf51cdc", "eadf1fa88fdb08a417e6a860ef612e3407db1f3827c5863a8e0799f72e169386"),
    ("pl", "BC"): (5, 57048, 2, "ad279df0c3e8b3814a161c7beccd9866513742505295b54297a49a327471f83e", "10770ecfb3b964346769e01194d59b3efeed3dec954e40e77f400d4950154aef"),
    ("tw", "PR"): (13, 1421680, 0, "f0460c9ea7faccc77ad6919a1d7ceb30ad4d2f8cae562fbd5b680b15d0625079", "2a2309883f501cd9b8af4167ead6eab24d84ae0b190e554245be3444449fed72"),
    ("tw", "PRD"): (17, 1788711, 1, "c802dc5035a312cd5133c9a02222542f153bc2e800cee9565a8ea1f41b7febae", "23764fa9a4b6c7a2d17e0ed939de16654c9a2e4685e29d79f351ffb6fb96d2ba"),
    ("tw", "Radii"): (6, 656160, 0, "4e1d91d30799efc715261ef8f1c9194727d795e5a9ec5a13beda34dc0cf29c39", "e974400b1f0bb4db7641e877a0f3420559e021edf2524a7a98a6866a00fa705a"),
    ("tw", "SSSP"): (10, 277036, 2, "a75c848296999731dc1f17655d8460944c7fb2470b34ac9139425900b384ec75", "d7a28c39b363feca1170d52d61627f3c5ee8ff56162a8073e330624a88b688e5"),
    ("tw", "BC"): (5, 129051, 2, "581bff8d7a5960d6a23a4f4214e488d74e8f4f2ff438bc7eb5e54e1789259652", "7f7d1648a9f3a2fab8f9954b8d526732ec3ba836c18793535d24f7f17c496f84"),
    ("sd", "PR"): (15, 2136180, 0, "6bf7985572661818ab143c46fa05fbd521f3637c2bbe1eacd76721149ee87009", "23ee523eec7bdb57e66a1eb4c2e083cf58d44fcc3cb9edd3cf0cd51712152448"),
    ("sd", "PRD"): (18, 2335265, 1, "6057efbc368d9a49905147427ff3b763bc9247db409729f5335ff4c925a4c7ea", "4530fc6afbebc297177529f906bbdf0295995fc1d88b0343800e1cad190ffd2b"),
    ("sd", "Radii"): (6, 854472, 0, "b9f4e7c03112095ea6e30e0593c68815854ae55ac36902446cdac921b22752ed", "1a05b3f8813c8ff4f9ea17002e76e0875df26cb5989e136bacba78771d28bf26"),
    ("sd", "SSSP"): (10, 417527, 2, "89472fbc196281fd58ee29245a94512da911afd945c5dd215bae58b27d22bce2", "23c4e0414d49152df377fcb273a460d10d53fbacd3f7b69a6a1cff04939c7d59"),
    ("sd", "BC"): (4, 172031, 2, "1a1c7df524f8f92364218426c4dba233c8853e8558753652449d28779e5a60ad", "0766f9541b1ef56177c96ff72f3ec575e61349e0283ca8962e3307b4c5a55eeb"),
    ("lj", "PR"): (31, 167741, 0, "c0f6b4aa4d1885145553179d3d62c3df9478d91d0f7fe12da269e6b9b6808141", "594a39331b36e221e5d6eae33ca5b9a063d9b5602c2246adf73689e55da9aa8f"),
    ("lj", "PRD"): (18, 90408, 1, "59b513039c3d48bd1aea5c37f64b737883ae5e6ad6fce6b6d69db55eefef3fdd", "e46921d5cad58a8295210e6531d43c94310f94d4c6517376343783f6271628db"),
    ("lj", "Radii"): (6, 32466, 0, "987063ef2dd3b5c130119ca500a68fb960e8d665c82cdb0ace87ca3ce7acbc7b", "7f5d439bc0321b0673d8db7bca652c22a911fd44704672791ec145d904142ce2"),
    ("lj", "SSSP"): (11, 12827, 3, "26c110f3e079f615f12f3af647451b3d86c0b4a14ba02d0771dfc627bf8e43d0", "24ca15cc628367efa83d99712f2029bd82cb1336f0bf9e6174e014a4ca0b99b8"),
    ("lj", "BC"): (4, 6822, 2, "80930c2b06f1afd75883d1bc299911aa077af6d5fad705167c2d9e627fc32ff2", "4c6464719e15dd54e2d9977b358dc96c9a88aefdfc6a160a3bbba991a9d764e6"),
    ("wl", "PR"): (46, 510922, 0, "57fe2e3efff8542df1d641c7e30ced52ed3d2c24c0db6d44bc0e16db1382042f", "de597660d3e590a737d068736d44852e013e596e56fcbc5ab7fc47c26427c863"),
    ("wl", "PRD"): (20, 180548, 1, "2deddda1d8d2a2965d85948734df68678c5d9ceaec3b18cbf20e0cd941539023", "130ca6b37ca3b66fbc236abf2d1d7351602b3e50bafe66ff7d89181af480bece"),
    ("wl", "Radii"): (9, 99963, 0, "4edcc95148b23dad1141763191f56d77dcd44d846959c08c241ed3cca9c38a2a", "ba895b27abdbdca8d0635293df1b1927d4f78233cfe7121e49e5f28a9822bd2b"),
    ("wl", "SSSP"): (12, 27866, 2, "9abf0ade60878cceda21449a9778b15404c457328b9cb01146105f27b4cd580b", "b934d81ce1040dd3c55b6df3042725280a7d9b29249807b814ea15407b9bcbbb"),
    ("wl", "BC"): (5, 13962, 2, "5ea94a4528470e8ac826f9edc6f534c7bfb3f1df975d32e4960743f1ee028827", "186cd939729d17b44e9e1b36a8e2d636b7e58cf55937ee34d77805cfb7a74fce"),
    ("fr", "PR"): (29, 4430185, 0, "95da75ad9cdbd85a764027d4b8750497d8660e5610a73534081e75cc8df205cd", "64d64e54c95369033dcc77a4f0182e0fbb36285edfdb9d6380e42bd31c6dd52b"),
    ("fr", "PRD"): (18, 2498885, 1, "60e77707762bd52afc30b3ff42c6d5aafa839c231f269dab48a68a8335f49304", "df091dc5e3d506a0100ef6b322a9f18cdd2c6c115903c72ed2b1e2548f5ded26"),
    ("fr", "Radii"): (6, 916590, 0, "3bd4f59a59009253a851b8778b11727dab0cb2afe76d4f76e0442c1030a220e8", "9ac65c3191352f17cca670cd7070bb883014402e1ede3ce4e38e999fc1e96b12"),
    ("fr", "SSSP"): (12, 494906, 3, "179ec7f09df26c3018895de2abbef827f1990759e232d4810f5e691b208e365f", "c09d90b9d5e1dcc34b35040bc3d339b48990f38a5b427da85fdc8b779c82156f"),
    ("fr", "BC"): (5, 190306, 2, "dbe3bbe79f04c210073454a0e70d19b5f9c04038a8acbf9983479a9648e82510", "8dc35f1e6d89b79a0bd63849326aadc7ad3e621db630c1da0651905677767a8a"),
    ("mp", "PR"): (26, 3451916, 0, "c438446c0416d12735b60f2cae13b104dd909191364c64e11418f9316be977dd", "bdbf91fb19ff91ba78b7711539be10ecf8869ed7dc7a73a8784cb0caf40ee878"),
    ("mp", "PRD"): (18, 2159854, 1, "13fea83d5f425fcd9648a27894b3e15b3275b96ece4ad4723cd3cf350aaecdec", "217da82b877fb5ee88b50f05b3eb76aed4ae9947323224ceecf8c7cdf330cab0"),
    ("mp", "Radii"): (6, 796596, 0, "f2c74737a25aa616b4e6ab98a2f0ccf29b5c6339ee9797841d36b8e24cce96f6", "7ee0995185b5e255cad73e8626a506bd41757bb8f75910ec6ec2286ddbce3297"),
    ("mp", "SSSP"): (9, 311833, 2, "fe6cd599718d39c6f23ffdf71ab58d4684c204491d43099f250ba1eea1683e01", "75eabb0e6f3d871fb4a2695f184009e146c8e0bc1cfc6cafbcb76f3f05adae96"),
    ("mp", "BC"): (4, 154758, 2, "cd40ed60f55801ffa659499627350470f4d86dfa8d3ce52ee411fd788c93fe48", "f22e82a33a75f35a0e42ed508c211972c61eca6e3750c1528981d30c09b60439"),
    ("uni", "PR"): (10, 999810, 0, "79d30824b17cccb41b324760c10410781af9dcc2a31dbbbdaf42a06bdcc48372", "209d7217027e7a9831f8b16c0166695fe3614fef5e394b1f30695bb7e2a2c934"),
    ("uni", "PRD"): (18, 1745921, 1, "e18df7a719b125008ecaae1774d367d17dc7caf5e5e8f7ca27a2632f6352f0f9", "c7cbce8d15ddce88005eb1e2a2e15fca75fe362f9863004267b476dcc59bb08c"),
    ("uni", "Radii"): (4, 399924, 0, "db1e33863245222db99ee7e7eb656196a70d60387a34320263d8d031b128eba6", "5069dc3d68a53a6cf4fb9f71b560c93b682817a0592fd983feacfb77b5e8a12d"),
    ("uni", "SSSP"): (18, 364502, 3, "09513cf8cc9463f056599db8d7c578b8a359193990180b486f2574edf7801b94", "35fb6333843d39c755cd6945b695751ad49903e3198ce18ea0f1e8d6e019818a"),
    ("uni", "BC"): (4, 118083, 3, "80dbfa6fde1206c493e23f28fd23658de6fbe727a80472e778a7bcd22c80bf26", "9883d609383fca54ab8f0bb4e9ec34c5805f894e8ef2823b666c5e4834da94c1"),
    ("road", "PR"): (77, 557942, 0, "3b97ca2289360aa2be9fc0d9b88576ed07aeed28b3ebeed557b743fc6fcd047c", "777b65235dccfa3962fe161016225e12725517f6146c0f2b868a5bf3d82a4f00"),
    ("road", "PRD"): (23, 48968, 1, "172ea1eb7bcba7971c1cbb76d064d882d9977c13d776d8626bc76b1d4615ea95", "190683e5080c7b3977653c10fdff4dbb9c262b56983057a6e6837aeca66ca3ff"),
    ("road", "Radii"): (16, 115936, 0, "28d18517390a032cb0f1237e6c1ac6ae4ba813223d7fc9ff37240d090fa8483f", "aa42a91eeebdb3991aba6b4ab7d5f35356fd09e369cf24527cce1000c2ef3a48"),
    ("road", "SSSP"): (3, 4, 0, "42c961fb7e3769a02bb9933f9a46acd08700facca71d88a1803854d757401407", "6e8e6362dd18e42188422155d96c8af00be82a0132b78bcd25288e4d06127c7f"),
    ("road", "BC"): (2, 7, 0, "e21be86664e155c9ce01c9f84c93c5ff5e3dce174a55c17448ada13b6ae4f37a", "bf2258ba5e4d14dd938877a6e912124499b96cb6079a7c7d220ae24c72238afc"),
}


@functools.lru_cache(maxsize=None)
def _graph(name: str, weighted: bool = False):
    return load_dataset(name, SCALE, weighted=weighted)


@functools.lru_cache(maxsize=None)
def _root(name: str) -> int:
    """The first traversal root the experiment pipeline picks."""
    pipeline = CellPipeline(ExperimentConfig(scale=SCALE))
    pipeline.seed_graphs({(name, False): _graph(name)})
    return pipeline.roots(name)[0]


def run_app(name: str, app_name: str) -> dict:
    """``app_name``'s run on the analog (SSSP's weighted, root apps from
    :func:`_root`)."""
    app = make_app(app_name)
    if app_name in ROOT_APPS:
        return app.run(_graph(name, weighted=app_name == "SSSP"), root=_root(name))
    return app.run(_graph(name))


def plan_pin(app_name: str, result: dict) -> tuple:
    """The pinned summary of one ``GraphApp.run`` result."""
    plan = result["plan"]
    steps = hashlib.sha256()
    for step in plan.supersteps:
        steps.update(step.direction.encode())
        steps.update(np.int64(step.edges).tobytes())
        if step.active is None:
            steps.update(b"all")
        else:
            steps.update(np.asarray(step.active, dtype=np.int64).tobytes())
        if app_name in ROOT_APPS:
            steps.update(np.float64(step.write_fraction).tobytes())
    if app_name == "Radii":
        steps.update(np.asarray(plan.detail["samples"], dtype=np.int64).tobytes())
        rounds, output = result["rounds"], result["radii"]
    elif app_name == "SSSP":
        rounds, output = result["rounds"], result["distances"]
    elif app_name == "BC":
        rounds, output = plan.detail["depth"], result["dependencies"]
    else:
        rounds, output = result["iterations"], result["ranks"]
    return (
        int(rounds),
        int(plan.total_edges),
        int(plan.representative),
        steps.hexdigest(),
        hashlib.sha256(output.tobytes()).hexdigest(),
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("name", DATASETS)
def test_plan_matches_pin(name, app_name, engine, monkeypatch):
    monkeypatch.setenv("REPRO_GRAPH_ENGINE", engine)
    result = run_app(name, app_name)
    assert plan_pin(app_name, result) == PINNED[(name, app_name)]


def test_pins_cover_every_analog_and_app():
    assert set(PINNED) == {(n, a) for n in DATASETS for a in APPS}
