"""Golden byte gate: pinned sha256 of the pipeline artifacts and of CLI stdout.

Every artifact is byte-deterministic, so a refactor that must keep behaviour
must keep these hashes. Only an announced format change may update them,
and CHANGES.md records it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corehier import fileio
from corehier.cli import main
from corehier.fixtures import generate_kg_sparse, three_level_example
from corehier.graph import NodeMeta

from conftest import planted_block_records, write_edges_tsv, write_nodes_jsonl

ARTIFACTS = (
    "decomposition.json",
    "hierarchy.json",
    "hierarchy_merged.json",
    "merge_report.json",
    "stats.json",
    "sample.tsv",
)

# (fixture, merge mode) -> sha256 of each artifact, in ARTIFACTS order.
PIPELINE_SHA256 = {
    ('example', 'm2hc'): (
        '9387d60187f32e5d2d8fa5f04c5930f15fc5c1374ea06a309103cf806d46edd3',
        '72e3a8766cdfbda4bff17120e9575d05a50f887f821953f8a1f609f8bd7a3429',
        '5abf9c6b5e25995b83ecfb9ba838182140b200f00654a436b659306008591fa3',
        'a67212fa0801b423578bb6366c231a0cdb24407c9394e1c04ac2113ee9747545',
        '75fa1faf0e9be51aeec4dc3217c603dba16b462ddce7cf0352fce8c0a96a23fe',
        '3a89a6aee7c6236ef2c8a36d1c1cc7368d56d6094db7567bba4fe8d1ffc3ea05',
    ),
    ('example', 'mrc'): (
        '9387d60187f32e5d2d8fa5f04c5930f15fc5c1374ea06a309103cf806d46edd3',
        '72e3a8766cdfbda4bff17120e9575d05a50f887f821953f8a1f609f8bd7a3429',
        '8fdfa5959d72d4c4b20fbf521af435528f9669e50827c439dd2447603c79c8ab',
        '34a79860960af3186c3b55ec4d7ee465aa4d35a3a0dfa8dfa2f66f07b3985e11',
        '1e195474b1fd09d4bbe3c30901b8adcf1b68a2285b67919ef94971973025c2e1',
        '49211a688432c210f676961f9941ef45e67078834fcf470f2fe76183b51307b6',
    ),
    ('kg2000-s0', 'm2hc'): (
        'e36610a9d82e3c716cebd4d24fa90f22a58e03d5fb047842c233f3ff9ce0e300',
        '98808b5d859c04ab091f7d792b8f5ba2b0fe5202986f00b701d614e652e43a3c',
        'e7c5e7124475aabb4eec8909268db3f1101748255495f7c240aded023b5aca6b',
        '29b3dc4445bc553b7000e42548c58fe31a4e23da45e0e5be1ec4e9b55dcabf5d',
        'b7d63746c37d409fc520a4d9a21417887d771d3d01048bc35257fea47d7c1a34',
        '77c57ec7d0369f8b12e7e2fac9afb35370c2009d2ed7417c323b42922b9678a5',
    ),
    ('kg2000-s0', 'mrc'): (
        'e36610a9d82e3c716cebd4d24fa90f22a58e03d5fb047842c233f3ff9ce0e300',
        '98808b5d859c04ab091f7d792b8f5ba2b0fe5202986f00b701d614e652e43a3c',
        '3caa9d3a124cabcd3c6657b85d7f8dca44e07014bd05e59538ae640f75247fa7',
        '0f9af97a2201b22b4a010397e0d2b545926587ddd539fac149399a9a0cf9a03e',
        '461dae0322289dc31c70d801bc76f490e6dcfc1293c9ef3796d06fde92812056',
        '900f53b1d9ffb2d4a1049591bce597cb51b59d57286a297d6f5c2ea3c9a64d5e',
    ),
    ('kg2000-s1', 'm2hc'): (
        'b823a30ea6323077991091366299fb40c68751c44883cf51e5146468911e9a2a',
        'eea32ec78c9ed9bba13507184df7b37009fcd664b3505bba24844ffea73d2626',
        'efab451fbd575637cf564235b75f7e60e7028640502a8c3fed0075a9c64e03c1',
        'ce43e23e46d42826b4d782924b2f5e789d4897b94591fe87476ea28edd9837fb',
        '3d8807f915ace5005801de7075573e85512abfcae1c1e132f88dedbb7f61a4b9',
        'ff8f4d6d6034aeff9bcb22e6514ed0fe372b4478e1761c633e49daa83eac2c41',
    ),
    ('kg2000-s1', 'mrc'): (
        'b823a30ea6323077991091366299fb40c68751c44883cf51e5146468911e9a2a',
        'eea32ec78c9ed9bba13507184df7b37009fcd664b3505bba24844ffea73d2626',
        '0b4eb88253217f65a7e9c0916e9d2f2f17fc947014c5beb1a118df081214ad09',
        '080cf08f4beb7dd01bca35322f4e990d1b031b2f0672f29447536d3680965cfe',
        '7710a6e32f6deb70930db122ed71de1170aaa5386bc440199593398f6996029b',
        '39ad5584c86db29aa56014533e61c7e9ba3b492763b279f217af41637ec386ef',
    ),
    ('kg2000-s2', 'm2hc'): (
        '17463995e41c6d0d67b08d52f38a0276c3d2cc0349fa41b39d2548f4ddc1db5e',
        '1c8ac5744d36263e23898573c52bcd5fa319d92ff0f56db4542519838153ba0d',
        'c97b965f780565c5cd6714f6ae4bb4bf3d8e74479f0447e5c7b621be6625f6c5',
        '562f7b5cca6f53a1a52206a6b146fc285e907636c8744dd38e422e74c51d81c0',
        '4163ec97ed158b4d6f675e07daa9747c2945f552f3d2687295fefdf7f4fff0ae',
        '727036ec2c4a48ae73e1907bdb81f3fb4b3258f53afeb0e50759c5ee2c90769a',
    ),
    ('kg2000-s2', 'mrc'): (
        '17463995e41c6d0d67b08d52f38a0276c3d2cc0349fa41b39d2548f4ddc1db5e',
        '1c8ac5744d36263e23898573c52bcd5fa319d92ff0f56db4542519838153ba0d',
        '751b2600c7329d777997cc2fb711604d1065c8cb7b681894d2ea0bd6e91bf35a',
        'b4e5428b5740ec645e05502a5af00cc6656e2806188be64e89ad145468798bcc',
        '0aca6553b5c2e9af3874dff41e01268f13e7909652111b39e5e339a59b16d656',
        'f374d05d1698d3e265ff09a45d05a900045fc1dba1eb92a642876954c82f6236',
    ),
}

# subcommand -> sha256 of its stdout on the disconnected input below.
STDOUT_SHA256 = {
    'decompose': '1408b1ac97718c1e4d342e5391ee33e79848962d6246f43313a922ce1468054e',
    'hierarchy': '1d850df435ef224a2c87313eaba3b745e1ff4794b72c619b2a7f2c23cfc47acc',
}


def fixture_records(name):
    if name == "example":
        return three_level_example()
    seed = int(name.removeprefix("kg2000-s"))
    return generate_kg_sparse(2000, seed=seed)


# merge mode -> sha256 of each artifact, in ARTIFACTS order, for the planted
# blocks under a cap of 6: 19 core levels, and oversized two-hop groups split
# at levels 1 and 5-15.
MULTI_LEVEL_SHA256 = {
    'm2hc': (
        '76abfdfb61799e25c6dad882f6d755e0d2191291308b9f7aca26240cc7bee9d0',
        '1fa092029e7d2a958e48b232fa5147c6de1b5f07740b85715ea312c4a742df9b',
        '83cf88c783ecbcd433d86bc875a09a874109f5df86243d9cb72f09f3bcde4c92',
        '2807d2f2c9a886f207bf621797b9437d32a916849d1c5c371620d2c74946d473',
        'dda97b82ae6002404384868e2b1de057427f46fb5578c8345c22202b6339d205',
        '84079970f3f2ca163ccb6a3239f7873003d4955a763b11cc61186ba3de934ce4',
    ),
    'mrc': (
        '76abfdfb61799e25c6dad882f6d755e0d2191291308b9f7aca26240cc7bee9d0',
        '1fa092029e7d2a958e48b232fa5147c6de1b5f07740b85715ea312c4a742df9b',
        '6bc7e21b3f142af7c4594dc9408e0d92c15de73c93c1e2f71ed2643a75742447',
        '7ed314d98e73d7153b31e52665e6864e9c56aab396179631b988118c8775ec64',
        'b58154fef3b4a6eefab207e2ac514d857ce94ef6c5225d4e881cba7652bcac26',
        '2cbecab68dd27b0cab586e7ffe7331a920d6cdbcdf785cfdfb9394debd175187',
    ),
}


# merge mode -> sha256 of each artifact, in ARTIFACTS order, for the planted
# blocks under the cap the default token limit derives (123): each level-1
# part holds whole blocks, so the clusters split at every one of the 19
# core levels.
MULTI_LEVEL_DERIVED_CAP_SHA256 = {
    'm2hc': (
        '76abfdfb61799e25c6dad882f6d755e0d2191291308b9f7aca26240cc7bee9d0',
        'b863af7657f6ac8de6c56fa7fb75d8b21d9fb2b8f2d6e3e9c9ffd196df854659',
        '48feb46f18a4d4ed12ba07b1bff47fea49905094b62c4912ab3568ad2e5bab11',
        'b3b140cf05c7f6b226857f511b3c8186e885b364390dcd91b098e8eb98fb95db',
        '192ea6d8ee9a5ae5ba1b6862ea10867a5fa92ed636850878f90cfb79c810750a',
        'fece5202391fcf9651c3bb9297ba64fb53e32173d8ea82d6ee343c04410f33e3',
    ),
    'mrc': (
        '76abfdfb61799e25c6dad882f6d755e0d2191291308b9f7aca26240cc7bee9d0',
        'b863af7657f6ac8de6c56fa7fb75d8b21d9fb2b8f2d6e3e9c9ffd196df854659',
        '6cc74bba0587527455a816e04795849727e996bcfd295de3d15fc4ab2643ba74',
        '1ebe19e441b371f50c17ae72b2f7f3f9adeb429f0f8348a658bf200466c058d2',
        'c48bc697860429697374b8082d35fd1c72bd77d2820d45d1dac914d6229a8b04',
        '670d6755d3ac427650ac8769cffae45033ab8b974fdf6d9d1dfdd376330495ec',
    ),
}


# (merge mode, --max-cluster-size or None for the derived cap) -> sha256 of
# each artifact, in ARTIFACTS order, for generate_kg_sparse(6000, seed=3):
# thousands of stranded degree-1 pendants at level 1, pooled and attached.
KG6000_SHA256 = {
    ('m2hc', None): (
        '29d37d0918517cfafd35022f28bc79c18db895f5f1b685362e189e4e1897947d',
        '1bd6069c9e25310daa64b606d808b00cf8c03578a4c1ad9e9b6e85919d550101',
        'ac8077f8cb38440de4aef92a30338436afb7036be5e6ab1bc366b489bc4d37d5',
        'e389d66f66fd433163aed7611d4cc605308dc1d4b2b14ba32fc9e3d448b368b7',
        '2f09ca691b57211890c28f98c46b75c9306c2103df9d2b78287dc18b8d4dc09b',
        'b6ed6853283cb5c8b040f78121daa5b8a750245f0793f2eb8c4c347adcfc8820',
    ),
    ('m2hc', 40): (
        '29d37d0918517cfafd35022f28bc79c18db895f5f1b685362e189e4e1897947d',
        '12b7d7e1ef1472ab17c3909fd75d517f52d4cde85c90761c0e5969e38278081d',
        '11e4721bde904051567428f9db23cc90d66fedc65bbfafd7b88239096e331348',
        '156fe8cca4d704f7c447479541094e4b3f36bf0663212a4dd386dffc794f4c54',
        'ca2006ffda3cea58c7e96c5a271f008a178564becb592b2142571380e193fec6',
        '6c256e04705eaeb72eba17c20e1282230979b520d1af314c17a79810d12992e4',
    ),
    ('mrc', None): (
        '29d37d0918517cfafd35022f28bc79c18db895f5f1b685362e189e4e1897947d',
        '1bd6069c9e25310daa64b606d808b00cf8c03578a4c1ad9e9b6e85919d550101',
        'e0ce453d6a85ae1034119f2fcd850dd8158e88b3563a6cee2e8d467ffa394f21',
        '53699cbe62d75865faec8a9d6f7ebd917d7c37d93e4c3d1d5921f5dd520c8c12',
        '358cc7385523bf1ccd8108f59e9af232af7b59a5619a7d83a7c21458d9e55468',
        '2694f678e0b97945a59dde818c6a659f4194dcce54522382c6733cbde775ee6e',
    ),
    ('mrc', 40): (
        '29d37d0918517cfafd35022f28bc79c18db895f5f1b685362e189e4e1897947d',
        '12b7d7e1ef1472ab17c3909fd75d517f52d4cde85c90761c0e5969e38278081d',
        '5ef81ea3b7ed191183043c2dca3848a4388fcedd20bcc8be0ace47eff44c6705',
        'fea944bc6ccc468b4274d2de040ff8e45df51bbc57fbfdcad6f30d8a5301a67e',
        'cf9446ae06a08b036764a8a2e27cafd94ee1e4ce5252fdbcadcf47a9957b3cc4',
        '4472f58dfd8cda527f375cb2a05fc3d6535a617106dbdb79a6ef5edc62bf9ec6',
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fixture,mode", sorted(PIPELINE_SHA256))
def test_pipeline_artifacts_match_golden_hashes(fixture, mode, tmp_path):
    edges, nodes = fixture_records(fixture)
    write_edges_tsv(tmp_path / "edges.tsv", edges)
    write_nodes_jsonl(tmp_path / "nodes.jsonl", nodes)
    out = tmp_path / "out"
    argv = ["pipeline", "--edges", str(tmp_path / "edges.tsv"),
            "--nodes", str(tmp_path / "nodes.jsonl"), "--out", str(out), "--merge-mode", mode]
    assert main(argv) == 0
    got = tuple(sha256((out / name).read_bytes()) for name in ARTIFACTS)
    assert dict(zip(ARTIFACTS, got)) == dict(zip(ARTIFACTS, PIPELINE_SHA256[fixture, mode]))


@pytest.mark.parametrize("mode", sorted(MULTI_LEVEL_SHA256))
def test_multi_level_pipeline_artifacts_match_golden_hashes(mode, tmp_path):
    edges, nodes = planted_block_records()
    write_edges_tsv(tmp_path / "edges.tsv", edges)
    write_nodes_jsonl(tmp_path / "nodes.jsonl", nodes)
    out = tmp_path / "out"
    argv = ["pipeline", "--edges", str(tmp_path / "edges.tsv"), "--nodes", str(tmp_path / "nodes.jsonl"),
            "--out", str(out), "--merge-mode", mode, "--max-cluster-size", "6"]
    assert main(argv) == 0
    got = tuple(sha256((out / name).read_bytes()) for name in ARTIFACTS)
    assert dict(zip(ARTIFACTS, got)) == dict(zip(ARTIFACTS, MULTI_LEVEL_SHA256[mode]))


@pytest.mark.parametrize("mode", sorted(MULTI_LEVEL_DERIVED_CAP_SHA256))
def test_multi_level_pipeline_at_the_derived_cap_matches_golden_hashes(mode, tmp_path):
    edges, nodes = planted_block_records()
    write_edges_tsv(tmp_path / "edges.tsv", edges)
    write_nodes_jsonl(tmp_path / "nodes.jsonl", nodes)
    out = tmp_path / "out"
    argv = ["pipeline", "--edges", str(tmp_path / "edges.tsv"), "--nodes", str(tmp_path / "nodes.jsonl"),
            "--out", str(out), "--merge-mode", mode]
    assert main(argv) == 0
    hobj = json.loads((out / "hierarchy.json").read_text(encoding="utf-8"))
    assert (hobj["max_cluster_size"], hobj["max_level"]) == (123, 19)
    got = tuple(sha256((out / name).read_bytes()) for name in ARTIFACTS)
    assert dict(zip(ARTIFACTS, got)) == dict(zip(ARTIFACTS, MULTI_LEVEL_DERIVED_CAP_SHA256[mode]))


@pytest.fixture(scope="module")
def kg6000_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("kg6000")
    edges, nodes = generate_kg_sparse(6000, seed=3)
    write_edges_tsv(d / "edges.tsv", edges)
    write_nodes_jsonl(d / "nodes.jsonl", nodes)
    return d


@pytest.mark.parametrize("mode,cap", sorted(KG6000_SHA256, key=str))
def test_kg6000_pipeline_artifacts_match_golden_hashes(mode, cap, kg6000_files, tmp_path):
    out = tmp_path / "out"
    argv = ["pipeline", "--edges", str(kg6000_files / "edges.tsv"), "--nodes", str(kg6000_files / "nodes.jsonl"),
            "--out", str(out), "--merge-mode", mode]
    if cap is not None:
        argv += ["--max-cluster-size", str(cap)]
    assert main(argv) == 0
    got = tuple(sha256((out / name).read_bytes()) for name in ARTIFACTS)
    assert dict(zip(ARTIFACTS, got)) == dict(zip(ARTIFACTS, KG6000_SHA256[mode, cap]))


@pytest.mark.parametrize("mode,cap", sorted(KG6000_SHA256, key=str))
def test_kg6000_golden_hashes_hold_across_sample_chunk_seams(mode, cap, kg6000_files, tmp_path, monkeypatch):
    """The same pinned hashes with ``sample.tsv`` written 300 picks per chunk, so that many chunk seams are crossed."""
    monkeypatch.setattr(fileio, "_SAMPLE_CHUNK", 300)
    test_kg6000_pipeline_artifacts_match_golden_hashes(mode, cap, kg6000_files, tmp_path)
    assert len((tmp_path / "out" / "sample.tsv").read_text(encoding="utf-8").splitlines()) > 4 * 300


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_kg6000_golden_hashes_hold_under_any_hash_seed(hash_seed, kg6000_files, tmp_path):
    """The pinned m2hc hashes from a fresh interpreter per hash seed: no artifact depends on ``str`` hashing."""
    out = tmp_path / "out"
    argv = ["pipeline", "--edges", str(kg6000_files / "edges.tsv"), "--nodes", str(kg6000_files / "nodes.jsonl"),
            "--out", str(out), "--merge-mode", "m2hc"]
    env = {**os.environ, "PYTHONPATH": str(Path(fileio.__file__).resolve().parents[1]), "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run([sys.executable, "-m", "corehier.cli", *argv], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    got = tuple(sha256((out / name).read_bytes()) for name in ARTIFACTS)
    assert dict(zip(ARTIFACTS, got)) == dict(zip(ARTIFACTS, KG6000_SHA256["m2hc", None]))


def test_costs_past_int64_are_exact(tmp_path):
    """Token counts and an overhead of 2**62 price edges at 2**63 and more, exactly.

    Ranked by degree sum the edges are a-c, b-c (5), a-b, c-d (4); the 0.8
    budget prices the first three at 2**63 + 2**63 + 3 * 2**62 = 7 * 2**62,
    which they use up, so c-d (2**62) is priced out. Fixed-width integers
    would wrap every one of these figures.
    """
    big = 2**62
    write_edges_tsv(tmp_path / "edges.tsv", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    write_nodes_jsonl(tmp_path / "nodes.jsonl", [NodeMeta("a", "", big), NodeMeta("b", "", big)])
    out = tmp_path / "out"
    argv = ["pipeline", "--edges", str(tmp_path / "edges.tsv"), "--nodes", str(tmp_path / "nodes.jsonl"),
            "--out", str(out), "--max-cluster-size", "3", "--overhead", str(big)]
    assert main(argv) == 0
    assert (out / "sample.tsv").read_text(encoding="utf-8") == (
        "#src\tdst\tcommunity\tcost\n"
        f"a\tc\t0\t{2 * big}\n"
        f"b\tc\t0\t{2 * big}\n"
        f"a\tb\t0\t{3 * big}\n"
    )


def disconnected_records():
    """Three components plus isolated nodes, with self-loops, duplicate and reversed edges.

    The largest component is a kg_sparse graph written with every third
    edge reversed, every fifth repeated and a self-loop on every seventh
    node; it does not contain the smallest external id, so extraction has
    to renumber. A second copy of the 16-node example and a triangle with a
    self-loop make the smaller components.
    """
    kg_edges, kg_nodes = generate_kg_sparse(300, seed=11)
    edges = []
    for i, (a, b) in enumerate(kg_edges):
        edges.append((b, a) if i % 3 == 0 else (a, b))
        if i % 5 == 0:
            edges.append((a, b))
    edges += [(rec.external_id, rec.external_id) for rec in kg_nodes[::7]]
    ex_edges, ex_nodes = three_level_example()
    edges += [("a" + w, "a" + u) for u, w in ex_edges]
    edges += [("00x", "00y"), ("00y", "00z"), ("00z", "00x"), ("00x", "00x"), ("00y", "00x")]
    nodes = list(kg_nodes)
    nodes += [NodeMeta("a" + rec.external_id, rec.label, rec.token_count) for rec in ex_nodes]
    nodes += [NodeMeta("000-isolated", "alone", 5), NodeMeta("zzz-isolated", "", 0)]
    return edges, nodes


@pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
def test_disconnected_input_stdout_matches_golden_hash(command, tmp_path, capsys):
    edges, nodes = disconnected_records()
    write_edges_tsv(tmp_path / "edges.tsv", edges)
    write_nodes_jsonl(tmp_path / "nodes.jsonl", nodes)
    argv = [command, "--edges", str(tmp_path / "edges.tsv"), "--nodes", str(tmp_path / "nodes.jsonl")]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == STDOUT_SHA256[command]



def lab_edges(n=10, seed=7):
    """A seeded n-node graph: a random tree plus three random chords; by default six nodes have degree <= 2."""
    rng = np.random.default_rng(seed)
    names = [f"v{i:02d}" for i in range(n)]
    edges = [(names[i], names[int(rng.integers(0, i))]) for i in range(1, n)]
    edges += [(names[a], names[b]) for a, b in rng.integers(0, n, size=(3, 2)).tolist() if a != b]
    return edges


# lab subcommand options -> sha256 of its stdout on ``lab_edges()``.
LAB_STDOUT_SHA256 = {
    ('degeneracy', '--epsilon', '0.05', '--d', '2'):
        'a6fdf334466f3c238c4ae20c0e42093a08eae4b6d14c48c11eb37dc90b692c52',
    ('verify-bounds', '--d', '2', '--seed', '3'):
        '21484f6ee809d968ebb471dfd861d8005420ed5a214ba27e89ffe53a1afca783',
}


@pytest.mark.parametrize("command", sorted(LAB_STDOUT_SHA256), ids=" ".join)
def test_lab_stdout_matches_golden_hash(command, tmp_path, capsys):
    write_edges_tsv(tmp_path / "edges.tsv", lab_edges())
    assert main([command[0], "--edges", str(tmp_path / "edges.tsv"), *command[1:]]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == LAB_STDOUT_SHA256[command]


LAB_INPUTS = {
    "lab12": lambda: lab_edges(12, seed=12),  # at the enumeration cap: Bell(12) partitions
    "four-edges": lambda: [("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")],
    "cycle5": lambda: [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)],
    "path6": lambda: [(f"v{i}", f"v{i + 1}") for i in range(5)],
}

# (input, lab subcommand, options) -> sha256 of its stdout on ``LAB_INPUTS[input]()``.
# On four disjoint edges the cutoff 0.75 - 0.375 is a Q that partitions attain.
# The 5-cycle at its statement tolerance 2/5 counts 42, none at exactly Q* - 2/5,
# and the path of 6 reports Q* = 3/10 as 0.3.
LAB_INPUT_STDOUT_SHA256 = {
    ('lab12', 'degeneracy', '--epsilon', '0.02', '--d', '1'):
        '1898f15340625049a5b9924b314aaba8477bdebba75b36f520624152d2a423dd',
    ('lab12', 'verify-bounds', '--d', '1'):
        'da4e08335e533a9ba2c90e3e38b1485483830a9f016829c3ad6d02046e24b8cc',
    ('four-edges', 'degeneracy', '--epsilon', '0.375', '--d', '1'):
        'd614dd521e0d328124d7865c114032dc27087eab4c687c4f701c0b0e02c6231f',
    ('cycle5', 'degeneracy', '--epsilon', '0.4', '--d', '1'):
        '248506630f13ba165733cdd07d1384b2392c1a5029b11e3d31def9879ae7a4c2',
    ('path6', 'degeneracy', '--epsilon', '0.2', '--d', '1'):
        'baa38beaa9a7468c05978d266e91f756d45c99f7cf4298db22e5c5cc6922a153',
}


@pytest.mark.parametrize("key", sorted(LAB_INPUT_STDOUT_SHA256), ids=" ".join)
def test_lab_stdout_per_input_matches_golden_hash(key, tmp_path, capsys):
    name, command, *options = key
    write_edges_tsv(tmp_path / "edges.tsv", LAB_INPUTS[name]())
    assert main([command, "--edges", str(tmp_path / "edges.tsv"), *options]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == LAB_INPUT_STDOUT_SHA256[key]

# subcommand options -> sha256 of its stdout on the disconnected input, reading
# the ``hierarchy`` output of that input.
CHAINED_STDOUT_SHA256 = {
    ('merge', '--mode', 'm2hc'): 'fb9f31822f69c3b4046958671d14e9d93a4bec266d5003c617beb00991cad211',
    ('merge', '--mode', 'mrc'): '187fd21412059ff74a8acefc54b5302d5dd0f86d3f0c2cc5542602d73ee531a9',
    ('stats', '--level', 'lf'): '210cf74e3d1385650031fe51e9b72fe8ce3321c435fcbd15a4b8fd71531500bb',
    ('stats', '--level', 'l1'): 'e18fbc6d4c79d63e5fb5de6bd8bcc01ad1c244b5142e5d1d39d9b444aa60c982',
    ('sample', '--edge-fraction', '0.5'): '77185c49be945cf117648a8b821afd4a7d10ead7b738c1d7671f94ef4a99d960',
    ('sample', '--token-budget', '3000'): '3575d1dd82d04bb103f1b95b7a9aefd9940dd8a92a07cf6b40b46d465521548c',
}


@pytest.mark.parametrize("command", sorted(CHAINED_STDOUT_SHA256))
def test_chained_subcommand_stdout_matches_golden_hash(command, tmp_path, capsys):
    edges, nodes = disconnected_records()
    write_edges_tsv(tmp_path / "edges.tsv", edges)
    write_nodes_jsonl(tmp_path / "nodes.jsonl", nodes)
    io = ["--edges", str(tmp_path / "edges.tsv"), "--nodes", str(tmp_path / "nodes.jsonl")]
    assert main(["hierarchy", *io, "--out", str(tmp_path / "h.json")]) == 0
    assert main([command[0], *io, "--hierarchy", str(tmp_path / "h.json"), *command[1:]]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == CHAINED_STDOUT_SHA256[command]


@pytest.mark.parametrize("fixture", ["example", "kg2000-s1"])
@pytest.mark.parametrize("mode", ["m2hc", "mrc"])
def test_staged_subcommands_reproduce_pipeline_artifacts(fixture, mode, tmp_path, capsys):
    edges, nodes = fixture_records(fixture)
    write_edges_tsv(tmp_path / "edges.tsv", edges)
    write_nodes_jsonl(tmp_path / "nodes.jsonl", nodes)
    io = ["--edges", str(tmp_path / "edges.tsv"), "--nodes", str(tmp_path / "nodes.jsonl")]
    ref, out = tmp_path / "pipeline", tmp_path / "staged"
    out.mkdir()
    assert main(["pipeline", *io, "--out", str(ref), "--merge-mode", mode]) == 0
    merged = str(out / "hierarchy_merged.json")
    for argv in (
        ["decompose", *io, "--out", str(out / "decomposition.json")],
        ["hierarchy", *io, "--out", str(out / "hierarchy.json")],
        ["merge", *io, "--hierarchy", str(out / "hierarchy.json"), "--mode", mode,
         "--out", merged, "--report", str(out / "merge_report.json")],
        ["sample", *io, "--hierarchy", merged, "--edge-fraction", "0.8",
         "--out", str(out / "sample.tsv")],
    ):
        assert main(argv) == 0
    for name in ARTIFACTS:
        if name != "stats.json":
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    stats = json.loads((ref / "stats.json").read_text(encoding="utf-8"))
    capsys.readouterr()
    for level in ("lf", "l1"):
        assert main(["stats", *io, "--hierarchy", merged, "--level", level]) == 0
        assert json.loads(capsys.readouterr().out) == stats[level]


# Subcommands whose output goes to ``--out`` or, without it, to stdout.
OUT_OR_STDOUT = [
    ("decompose",),
    ("hierarchy",),
    ("merge", "--mode", "mrc", "--report"),
    ("merge", "--mode", "m2hc"),
    ("stats", "--level", "l1"),
    ("sample", "--edge-fraction", "0.5"),
]


@pytest.mark.parametrize("command", OUT_OR_STDOUT, ids=" ".join)
def test_out_file_bytes_equal_stdout(command, tmp_path, capsys):
    edges, nodes = disconnected_records()
    write_edges_tsv(tmp_path / "edges.tsv", edges)
    write_nodes_jsonl(tmp_path / "nodes.jsonl", nodes)
    io = ["--edges", str(tmp_path / "edges.tsv"), "--nodes", str(tmp_path / "nodes.jsonl")]
    assert main(["hierarchy", *io, "--out", str(tmp_path / "h.json")]) == 0
    name, *options = command
    if name not in ("decompose", "hierarchy"):
        io += ["--hierarchy", str(tmp_path / "h.json")]
    report = options[-1:] == ["--report"]
    if report:
        options = options[:-1]
    capsys.readouterr()
    assert main([name, *io, *options]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "out.txt"
    extra = ["--report", str(tmp_path / "report.json")] if report else []
    assert main([name, *io, *options, "--out", str(out), *extra]) == 0
    files = [out]
    if name == "merge":  # the hierarchy, then its report
        files.append(tmp_path / "report.json" if report else out.with_suffix(".report.json"))
    assert b"".join(f.read_bytes() for f in files) == stdout
    assert capsys.readouterr().out == ""
