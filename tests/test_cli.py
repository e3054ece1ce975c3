"""Command-line surface: subcommands, artifacts, exit codes, reproducibility."""

import copy
import importlib
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corehier.cli import main
from corehier.fileio import write_edges_tsv, write_nodes_jsonl
from corehier.fixtures import three_level_example


@pytest.fixture()
def example_inputs(tmp_path):
    edges, nodes = three_level_example()
    edges_path = tmp_path / "edges.tsv"
    nodes_path = tmp_path / "nodes.jsonl"
    write_edges_tsv(edges_path, edges)
    write_nodes_jsonl(nodes_path, nodes)
    return str(edges_path), str(nodes_path)


def run(*argv):
    return main(list(argv))


class TestDecompose:
    def test_emits_core_numbers(self, example_inputs, tmp_path, capsys):
        edges, nodes = example_inputs
        out = tmp_path / "dec.json"
        assert run("decompose", "--edges", edges, "--nodes", nodes, "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["max_core"] == 3
        assert payload["cores"]["a"] == 1 and payload["cores"]["m"] == 3


    def test_invalid_utf8_edge_file_exits_3(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_bytes(b"a\tb\nb\t\xff\xfe\n")
        assert run("decompose", "--edges", str(edges)) == 3
        err = capsys.readouterr().err
        assert f"{edges}:2: invalid UTF-8" in err
        assert "Traceback" not in err

    def test_deeply_nested_node_line_exits_3(self, example_inputs, tmp_path, capsys):
        edges, _ = example_inputs
        nodes = tmp_path / "nodes.jsonl"
        nodes.write_text('{"id": "a"}\n' + "[" * 100_000 + "\n")
        assert run("decompose", "--edges", edges, "--nodes", str(nodes)) == 3
        assert f"error: {nodes}:2: invalid JSON: " in capsys.readouterr().err


class TestHierarchy:
    def test_explicit_cap(self, example_inputs, tmp_path):
        edges, nodes = example_inputs
        out = tmp_path / "h.json"
        assert (
            run("hierarchy", "--edges", edges, "--nodes", nodes,
                "--max-cluster-size", "16", "--out", str(out))
            == 0
        )
        payload = json.loads(out.read_text())
        kinds = {c["kind"] for c in payload["clusters"]}
        assert kinds == {"root", "core", "residual", "two_hop"}
        assert payload["attached_singletons"] == {"e": 5}

    def test_conflicting_size_flags_exit_2(self, example_inputs):
        edges, nodes = example_inputs
        code = run("hierarchy", "--edges", edges, "--nodes", nodes,
                   "--max-cluster-size", "16", "--token-limit", "8000")
        assert code == 2


class TestMergeSampleStats:
    def make_hierarchy(self, example_inputs, tmp_path):
        edges, nodes = example_inputs
        h_path = tmp_path / "h.json"
        assert (
            run("hierarchy", "--edges", edges, "--nodes", nodes,
                "--max-cluster-size", "16", "--out", str(h_path))
            == 0
        )
        return h_path

    def test_merge_writes_hierarchy_and_report(self, example_inputs, tmp_path):
        edges, nodes = example_inputs
        h_path = self.make_hierarchy(example_inputs, tmp_path)
        merged_path = tmp_path / "merged.json"
        assert (
            run("merge", "--edges", edges, "--nodes", nodes, "--hierarchy", str(h_path),
                "--mode", "mrc", "--out", str(merged_path))
            == 0
        )
        merged = json.loads(merged_path.read_text())
        report = json.loads(merged_path.with_suffix(".report.json").read_text())
        assert report["clusters_after"] == len(merged["clusters"])
        assert report["mode"] == "residual_and_two_hop"

    def test_sample_requires_exactly_one_budget_flag(self, example_inputs, tmp_path):
        edges, nodes = example_inputs
        h_path = self.make_hierarchy(example_inputs, tmp_path)
        base = ["sample", "--edges", edges, "--nodes", nodes, "--hierarchy", str(h_path)]
        assert run(*base) == 2
        assert run(*base, "--token-budget", "100", "--edge-fraction", "0.5") == 2
        out = tmp_path / "sample.tsv"
        assert run(*base, "--token-budget", "200", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("#src")
        total = sum(int(line.split("\t")[3]) for line in lines[1:])
        assert total <= 200

    def test_invalid_utf8_hierarchy_exits_3(self, example_inputs, tmp_path, capsys):
        edges, nodes = example_inputs
        h_path = self.make_hierarchy(example_inputs, tmp_path)
        text = h_path.read_bytes()
        h_path.write_bytes(text.replace(b'"a"', b'"\xff"', 1))
        line = text[: text.index(b'"a"')].count(b"\n") + 1
        code = run("stats", "--edges", edges, "--nodes", nodes, "--hierarchy", str(h_path))
        assert code == 3
        assert f"{h_path}:{line}: invalid UTF-8" in capsys.readouterr().err

    def test_unknown_node_in_hierarchy_exits_3(self, example_inputs, tmp_path, capsys):
        edges, nodes = example_inputs
        h_path = self.make_hierarchy(example_inputs, tmp_path)
        obj = json.loads(h_path.read_text())
        cluster = obj["clusters"][3]
        cluster["members"].append("zzz")
        h_path.write_text(json.dumps(obj))
        code = run("stats", "--edges", edges, "--nodes", nodes, "--hierarchy", str(h_path))
        assert code == 3
        err = capsys.readouterr().err
        assert f"error: {h_path}: cluster {cluster['id']}: unknown node 'zzz'" in err
        assert "missing field" not in err

    def test_missing_field_in_hierarchy_names_the_file(self, example_inputs, tmp_path, capsys):
        edges, nodes = example_inputs
        h_path = self.make_hierarchy(example_inputs, tmp_path)
        obj = json.loads(h_path.read_text())
        del obj["clusters"][0]["level"]
        h_path.write_text(json.dumps(obj))
        code = run("merge", "--edges", edges, "--nodes", nodes, "--hierarchy", str(h_path))
        assert code == 3
        assert f"error: {h_path}: hierarchy JSON is missing field 'level'" in capsys.readouterr().err

    def test_unknown_parent_in_hierarchy_exits_3(self, example_inputs, tmp_path, capsys):
        edges, nodes = example_inputs
        h_path = self.make_hierarchy(example_inputs, tmp_path)
        obj = json.loads(h_path.read_text())
        obj["clusters"][1]["parent"] = 999
        h_path.write_text(json.dumps(obj))
        code = run("sample", "--edges", edges, "--nodes", nodes, "--hierarchy", str(h_path),
                   "--token-budget", "100")
        assert code == 3
        cid = obj["clusters"][1]["id"]
        assert f"error: {h_path}: cluster {cid}: unknown parent 999" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["stats"], ["merge"], ["sample", "--token-budget", "100"]],
    )
    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda obj: obj["clusters"][3].update(members=[["a"]]), "node ids must be strings"),
            (lambda obj: obj.update(clusters=[1, 2]), "integer 'id'"),
            (lambda obj: obj["clusters"][3].update(level="x"), "bad level 'x'"),
            (lambda obj: obj["clusters"][3].update(members="abc"), "must be lists"),
            (lambda obj: obj["clusters"].append(dict(obj["clusters"][3])), "duplicate id"),
            (lambda obj: obj["clusters"][0].update(parent=obj["clusters"][0]["id"]), "parent chain loops"),
            (lambda obj: obj.update(roots=5), "bad 'roots'"),
            (lambda obj: obj.update(attached_singletons={"e": [1]}), "'attached_singletons'"),
        ],
        ids=["nested-member", "int-clusters", "str-level", "str-members", "duplicate-id",
             "self-parent", "int-roots", "list-host"],
    )
    def test_malformed_hierarchy_exits_3(
        self, example_inputs, tmp_path, capsys, mutate, message, command
    ):
        edges, nodes = example_inputs
        h_path = self.make_hierarchy(example_inputs, tmp_path)
        obj = json.loads(h_path.read_text())
        mutate(obj)
        h_path.write_text(json.dumps(obj))
        code = run(command[0], "--edges", edges, "--nodes", nodes, "--hierarchy", str(h_path),
                   *command[1:])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith(f"error: {h_path}: ") and message in err

    def test_deeply_nested_hierarchy_exits_3(self, example_inputs, tmp_path, capsys):
        edges, nodes = example_inputs
        h_path = tmp_path / "h.json"
        h_path.write_text("[" * 100_000)
        code = run("stats", "--edges", edges, "--nodes", nodes, "--hierarchy", str(h_path))
        assert code == 3
        assert f"error: {h_path}: invalid JSON: " in capsys.readouterr().err

    def test_stats_levels(self, example_inputs, tmp_path, capsys):
        edges, nodes = example_inputs
        h_path = self.make_hierarchy(example_inputs, tmp_path)
        assert (
            run("stats", "--edges", edges, "--nodes", nodes,
                "--hierarchy", str(h_path), "--level", "lf")
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_communities"] == 6
        assert payload["coverage_pct_nodes"] == 100.0


@pytest.fixture(scope="module")
def example_hierarchy(tmp_path_factory):
    """Example inputs and the JSON of their hierarchy (size cap 16)."""
    tmp = tmp_path_factory.mktemp("example")
    edges, nodes = three_level_example()
    write_edges_tsv(tmp / "edges.tsv", edges)
    write_nodes_jsonl(tmp / "nodes.jsonl", nodes)
    io = ["--edges", str(tmp / "edges.tsv"), "--nodes", str(tmp / "nodes.jsonl")]
    assert run("hierarchy", *io, "--max-cluster-size", "16", "--out", str(tmp / "h.json")) == 0
    return tmp, io, json.loads((tmp / "h.json").read_text())


def _positions(obj):
    """Every (container, key) position in a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield obj, key
        yield from _positions(value)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats() | st.text(max_size=3)
    | st.sampled_from(list("aemp")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), command=st.sampled_from([["stats"], ["merge"], ["sample", "--token-budget", "100"]]))
def test_mutated_hierarchy_exits_0_or_3_without_traceback(example_hierarchy, data, command):
    tmp, io, original = example_hierarchy
    obj = copy.deepcopy(original)
    for _ in range(data.draw(st.integers(1, 3))):
        positions = list(_positions(obj))
        if not positions:
            break
        container, key = data.draw(st.sampled_from(positions))
        action = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            container[key] = data.draw(json_values)
        elif action == "delete":
            del container[key]
        elif isinstance(container, list):
            container.append(copy.deepcopy(container[key]))
    h_path = tmp / "mutated.json"
    h_path.write_text(json.dumps(obj))
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = main([command[0], *io, "--hierarchy", str(h_path), *command[1:]])
    assert code in (0, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


class TestModularityCommands:
    def write_four_edges(self, tmp_path):
        edges_path = tmp_path / "m.tsv"
        write_edges_tsv(edges_path, [("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")])
        return str(edges_path)

    def test_degeneracy_report(self, tmp_path, capsys):
        edges = self.write_four_edges(tmp_path)
        assert run("degeneracy", "--edges", edges, "--epsilon", "1.75", "--d", "1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degenerate_count"] == 4140
        assert payload["lower_bound"] == 16

    def test_verify_bounds_exit_codes(self, tmp_path, capsys, monkeypatch):
        edges = self.write_four_edges(tmp_path)
        # every bound holds, so d=1 exits clean
        assert run("verify-bounds", "--edges", edges, "--d", "1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pair_violations"] == 0 and payload["single_move_violations"] == 0
        assert payload["degeneracy_bound_holds"] is True
        # d=0 is vacuous and exits clean
        assert run("verify-bounds", "--edges", edges, "--d", "0") == 0
        capsys.readouterr()
        # a violated bound exits 4: the old, too small 2 d^2 / (2m)^2 fails here
        # (the package's ``modularity`` attribute is the function, not the module)
        monkeypatch.setattr(
            importlib.import_module("corehier.modularity"),
            "pair_perturbation_bound",
            lambda d, m: 2.0 * d * d / (2.0 * m) ** 2,
        )
        assert run("verify-bounds", "--edges", edges, "--d", "1") == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["pair_violations"] > 0 and payload["single_move_violations"] == 0


class TestPipeline:
    def test_artifacts_and_byte_identity(self, example_inputs, tmp_path):
        edges, nodes = example_inputs
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            assert (
                run("pipeline", "--edges", edges, "--nodes", nodes, "--out", str(out),
                    "--max-cluster-size", "16", "--merge-mode", "mrc",
                    "--edge-fraction", "0.8")
                == 0
            )
        names = ["decomposition.json", "hierarchy.json", "hierarchy_merged.json",
                 "merge_report.json", "stats.json", "sample.tsv"]
        for name in names:
            assert (out1 / name).exists()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_empty_edge_file_exits_3(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        assert run("pipeline", "--edges", str(empty), "--out", str(tmp_path / "o")) == 3

    def test_sample_respects_edge_fraction_budget(self, example_inputs, tmp_path):
        from corehier.graph import largest_connected_component, load_graph
        from corehier.fileio import read_edges_tsv, read_nodes_jsonl
        from corehier.sampling import budget_from_edge_fraction, default_edge_costs

        edges, nodes = example_inputs
        out = tmp_path / "o"
        assert (
            run("pipeline", "--edges", edges, "--nodes", nodes, "--out", str(out),
                "--max-cluster-size", "16", "--edge-fraction", "0.8")
            == 0
        )
        g = largest_connected_component(
            load_graph(read_edges_tsv(edges), read_nodes_jsonl(nodes))
        )
        budget = budget_from_edge_fraction(g, 0.8, default_edge_costs(g))
        lines = (out / "sample.tsv").read_text().strip().split("\n")[1:]
        assert sum(int(line.split("\t")[3]) for line in lines) <= budget


class TestGenFixture:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("gen-fixture", "--n", "200", "--seed", "9", "--out", str(out)) == 0
        assert (a / "edges.tsv").read_bytes() == (b / "edges.tsv").read_bytes()
        assert (a / "nodes.jsonl").read_bytes() == (b / "nodes.jsonl").read_bytes()

    def test_unknown_profile_exits_2(self, tmp_path):
        assert run("gen-fixture", "--n", "50", "--profile", "dense", "--out", str(tmp_path)) == 2

    def test_generated_fixture_feeds_pipeline(self, tmp_path):
        fix = tmp_path / "fix"
        assert run("gen-fixture", "--n", "300", "--seed", "2", "--out", str(fix)) == 0
        assert (
            run("pipeline", "--edges", str(fix / "edges.tsv"),
                "--nodes", str(fix / "nodes.jsonl"), "--out", str(tmp_path / "o"))
            == 0
        )
