"""Command-line surface: subcommands, artifacts, exit codes, reproducibility."""

import argparse
import copy
import importlib
import json
import math
import os
import stat
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corehier import cli, fileio
from corehier import graph as graph_module
from corehier import hierarchy as hierarchy_module
from corehier.cli import main
from corehier.errors import ConfigError, InputError
from corehier.fixtures import generate_kg_sparse, three_level_example
from corehier.graph import NodeMeta

from conftest import traced_peak, traced_retained, write_edges_tsv, write_nodes_jsonl


ARTIFACTS = ["decomposition.json", "hierarchy.json", "hierarchy_merged.json",
             "merge_report.json", "stats.json", "sample.tsv"]


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


def test_pipeline_labels_the_full_edge_set_once(tmp_path, monkeypatch):
    """The component labelling of the whole graph runs once, in ``largest_connected_component``.

    Counted through both modules' references to the labeller; the
    per-level pooling hands over only the pooled nodes' rows, fewer than m
    entries. ``build_hierarchy`` reads the connectivity record instead of
    labelling the component again.
    """
    edges, nodes = generate_kg_sparse(2000, seed=1)
    write_edges_tsv(tmp_path / "edges.tsv", edges)
    write_nodes_jsonl(tmp_path / "nodes.jsonl", nodes)
    m = graph_module.largest_connected_component(graph_module.load_graph(edges, nodes)).m
    labeller = graph_module._component_labels
    sizes = []

    def counted(n, u, w, *rest):
        sizes.append(len(u))
        return labeller(n, u, w, *rest)

    monkeypatch.setattr(graph_module, "_component_labels", counted)
    monkeypatch.setattr(hierarchy_module, "_component_labels", counted)
    assert run("pipeline", "--edges", str(tmp_path / "edges.tsv"), "--nodes", str(tmp_path / "nodes.jsonl"),
               "--out", str(tmp_path / "out")) == 0
    assert sum(size >= m for size in sizes) == 1


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

    def test_token_estimate_past_float_range_exits_0(self, tmp_path, capsys):
        # 2 / 1e-320 overflows a float; the estimate is the exact ceiling instead.
        edges, nodes = tmp_path / "edges.tsv", tmp_path / "nodes.jsonl"
        write_edges_tsv(edges, [("a", "b")])
        nodes.write_text('{"id": "a", "text": "xy"}\n')
        code = run("hierarchy", "--edges", str(edges), "--nodes", str(nodes), "--chars-per-token", "1e-320")
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert json.loads(captured.out)["max_cluster_size"] == 2


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

    def test_sample_prints_exact_ints_past_int64(self, tmp_path, capsys):
        """A cluster id of 10**20 and prices of 2**63 - 1 each, summing past int64, print exactly.

        Without a node file every token count is 0, so each edge of the path
        a-b-c costs the overhead; the read-back hierarchy's one cluster is
        the leaf that owns both edges, which tie on degree sum.
        """
        edges = tmp_path / "edges.tsv"
        edges.write_text("a\tb\nb\tc\n", encoding="utf-8")
        cid = 10**20
        h_path = tmp_path / "h.json"
        h_path.write_text(json.dumps({
            "clusters": [{"id": cid, "level": 1, "kind": "root", "parent": None, "leaf": True,
                          "members": ["a", "b", "c"], "anchors": []}],
            "attached_singletons": {}, "roots": [cid], "max_level": 1, "max_cluster_size": 3,
        }), encoding="utf-8")
        argv = ["sample", "--edges", str(edges), "--hierarchy", str(h_path),
                "--token-budget", "99999999999999999999999", "--overhead", "9223372036854775807"]
        want = ("#src\tdst\tcommunity\tcost\n"
                "a\tb\t100000000000000000000\t9223372036854775807\n"
                "b\tc\t100000000000000000000\t9223372036854775807\n")
        assert run(*argv) == 0
        assert capsys.readouterr().out == want
        out = tmp_path / "sample.tsv"
        assert run(*argv, "--out", str(out)) == 0
        assert out.read_text(encoding="utf-8") == want

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
        """Every field the writer writes is required: without ``leaf`` the leaf registry is unknown."""
        edges, nodes = example_inputs
        h_path = self.make_hierarchy(example_inputs, tmp_path)
        written = h_path.read_text()
        for field in ("level", "leaf", "anchors", "roots", "max_level", "max_cluster_size", "attached_singletons"):
            obj = json.loads(written)
            del (obj if field in obj else obj["clusters"][0])[field]
            h_path.write_text(json.dumps(obj))
            code = run("merge", "--edges", edges, "--nodes", nodes, "--hierarchy", str(h_path))
            assert code == 3
            assert f"error: {h_path}: hierarchy JSON is missing field '{field}'" in capsys.readouterr().err

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
            (lambda obj: obj["clusters"][0].update(leaf=True), "cluster 0: marked leaf but has children [1, 2, 3]"),
            (lambda obj: obj.update(roots=[1]), "cluster 1: listed in 'roots' but has parent 0"),
        ],
        ids=["nested-member", "int-clusters", "str-level", "str-members", "duplicate-id",
             "self-parent", "int-roots", "list-host", "leaf-with-children", "root-with-parent"],
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

    @pytest.mark.parametrize(
        "command",
        [["stats"], ["merge"], ["sample", "--token-budget", "100"]],
    )
    def test_integer_past_the_digit_limit_in_hierarchy_exits_3(self, example_inputs, tmp_path, capsys, command):
        edges, nodes = example_inputs
        h_path = tmp_path / "h.json"
        h_path.write_text('{"clusters": [{"id": 1' + "0" * 4999 + "}]}")
        code = run(command[0], "--edges", edges, "--nodes", nodes, "--hierarchy", str(h_path), *command[1:])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith(f"error: {h_path}: invalid JSON: Exceeds the limit (4300 digits)")

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

    def test_degeneracy_strips_a_self_loop(self, tmp_path):
        # A loop record adds no edge, so the report has the loop-free file's bytes.
        edges = self.write_four_edges(tmp_path)
        looped = tmp_path / "looped.tsv"
        write_edges_tsv(looped, [("a", "b"), ("c", "c"), ("c", "d"), ("e", "f"), ("g", "h")])
        argv = ["--epsilon", "0.3", "--d", "1"]
        plain = _stdout_of("degeneracy", "--edges", edges, *argv)
        assert _stdout_of("degeneracy", "--edges", str(looped), *argv) == plain
        assert json.loads(plain)["q_star"] > 0

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-0.5"])
    def test_degeneracy_epsilon_not_finite_and_positive_exits_2(self, tmp_path, capsys, epsilon):
        # The report would carry NaN or Infinity, which JSON does not allow.
        edges = self.write_four_edges(tmp_path)
        assert run("degeneracy", "--edges", edges, "--epsilon", epsilon, "--d", "1") == 2
        captured = capsys.readouterr()
        assert "error: epsilon must be finite and positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("d", ["-1", "-3"])
    @pytest.mark.parametrize("command", [["verify-bounds"], ["degeneracy", "--epsilon", "-1"]])
    def test_negative_degree_cutoff_exits_2_naming_d(self, tmp_path, capsys, command, d):
        edges = self.write_four_edges(tmp_path)
        assert run(command[0], "--edges", edges, *command[1:], "--d", d) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: degree cutoff d must be >= 0\n"
        assert captured.out == ""

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
        for name in ARTIFACTS:
            assert (out1 / name).exists()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_empty_edge_file_exits_3(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        assert run("pipeline", "--edges", str(empty), "--out", str(tmp_path / "o")) == 3

    def test_token_counts_past_float_range_exit_0(self, tmp_path):
        # 10**400 converts to no float; each percentage is taken from ints.
        edges, nodes, out = tmp_path / "edges.tsv", tmp_path / "nodes.jsonl", tmp_path / "o"
        write_edges_tsv(edges, [("a", "b"), ("b", "c")])
        nodes.write_text(json.dumps({"id": "a", "tokens": 10**400}) + "\n")
        assert run("pipeline", "--edges", str(edges), "--nodes", str(nodes), "--out", str(out)) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["lf"]["coverage_pct_nodes"] == 100.0

    @pytest.mark.parametrize(
        "edges,tokens,options,picks",
        [
            # 0.8 of one edge prices no edge
            ([("a", "b")], {"a": 5, "b": 7}, [], []),
            # the only node's self-loop is dropped, leaving no edge
            ([("a", "a")], {"a": 5}, [], []),
            # the top three of four edges cost 0; c-d costs 5
            ([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")], {"d": 5},
             ["--max-cluster-size", "3", "--overhead", "0"],
             ["a\tc\t0\t0", "b\tc\t0\t0", "a\tb\t0\t0"]),
        ],
        ids=["one-edge", "loop-only", "free-top-edges"],
    )
    def test_derived_budget_of_zero_exits_0(self, tmp_path, edges, tokens, options, picks):
        write_edges_tsv(tmp_path / "edges.tsv", edges)
        write_nodes_jsonl(tmp_path / "nodes.jsonl", [NodeMeta(k, "", t) for k, t in tokens.items()])
        out = tmp_path / "o"
        assert run("pipeline", "--edges", str(tmp_path / "edges.tsv"),
                   "--nodes", str(tmp_path / "nodes.jsonl"), "--out", str(out), *options) == 0
        lines = (out / "sample.tsv").read_text(encoding="utf-8").splitlines()
        assert lines == ["#src\tdst\tcommunity\tcost", *picks]

    def test_pipeline_ingests_columns(self, example_inputs, tmp_path, monkeypatch):
        """The CLI reads the edges as byte spans of the file, with no str per endpoint, and the nodes as columns.

        No NodeMeta, no edge record list, no load_graph, and no endpoint
        encoded from a str.
        """
        from corehier import graph

        def refuse(*args, **kwargs):
            raise AssertionError("built on the CLI path")

        monkeypatch.setattr(NodeMeta, "__post_init__", refuse)  # every NodeMeta runs it
        monkeypatch.setattr(graph, "load_graph", refuse)
        monkeypatch.setattr(graph.EdgeSpans, "encode", refuse)
        built = []
        original = cli.graph_from_columns

        def spy(*columns):
            built.append(columns)
            return original(*columns)

        monkeypatch.setattr(cli, "graph_from_columns", spy)
        edges, nodes = example_inputs
        assert run("pipeline", "--edges", edges, "--nodes", nodes, "--out", str(tmp_path / "o")) == 0
        (columns,) = built
        spans, ids, tokens = columns
        text = Path(edges).read_bytes()
        assert type(spans) is graph.EdgeSpans and type(spans.data) is bytes and spans.data == text
        assert spans.starts.dtype == spans.ends.dtype == np.int64
        assert len(spans.starts) == len(spans.ends) == 2 * text.count(b"\n")
        assert [type(column) for column in (ids, tokens)] == [list] * 2
        assert all(isinstance(name, str) for name in ids)
        assert all(type(count) is int for count in tokens)

    def test_sample_respects_edge_fraction_budget(self, example_inputs, tmp_path):
        from corehier.graph import graph_from_columns, largest_connected_component
        from corehier.fileio import read_edges_tsv, read_nodes_jsonl
        from corehier.sampling import budget_from_edge_fraction

        edges, nodes = example_inputs
        out = tmp_path / "o"
        assert (
            run("pipeline", "--edges", edges, "--nodes", nodes, "--out", str(out),
                "--max-cluster-size", "16", "--edge-fraction", "0.8")
            == 0
        )
        g = largest_connected_component(
            graph_from_columns(read_edges_tsv(edges), *read_nodes_jsonl(nodes))
        )
        budget = budget_from_edge_fraction(g, 0.8)
        lines = (out / "sample.tsv").read_text().strip().split("\n")[1:]
        assert sum(int(line.split("\t")[3]) for line in lines) <= budget


def test_load_peak_memory_is_a_small_multiple_of_the_input(tmp_path):
    """Ingest holds a few bytes per input byte, not one ``str`` per endpoint.

    A seeded edge-heavy input: 12,000 nodes and 120,000 edge records. numpy
    reports its buffers to tracemalloc, so the peak counts the arrays too.
    """
    rng = np.random.default_rng(20261019)
    names = [f"v{i:05d}" for i in range(12_000)]
    pairs = rng.integers(0, len(names), size=(120_000, 2)).tolist()
    write_edges_tsv(tmp_path / "edges.tsv", [(names[a], names[b]) for a, b in pairs])
    write_nodes_jsonl(tmp_path / "nodes.jsonl", [NodeMeta(name, f"entity {i}", 10 + i % 97) for i, name in enumerate(names)])
    size = (tmp_path / "edges.tsv").stat().st_size + (tmp_path / "nodes.jsonl").stat().st_size
    cfg = cli.PipelineConfig(edges_path=tmp_path / "edges.tsv", nodes_path=tmp_path / "nodes.jsonl")
    g, peak = traced_peak(cli._load, cfg)
    assert g.n == len(names)
    assert peak <= 8 * size, f"peak {peak} B is {peak / size:.2f} x the {size} input bytes"


def test_load_peak_memory_with_one_very_wide_field(tmp_path):
    """One 2 MB endpoint costs a few copies of its bytes, not a table as long as its width.

    The wide id names a node and an unknown endpoint extends it, so both
    the join and the unknown-name path key it.
    """
    wide = "w" * 2_000_000
    write_edges_tsv(tmp_path / "edges.tsv", [(wide, "a"), ("a", "b"), ("b", wide + "x")])
    write_nodes_jsonl(tmp_path / "nodes.jsonl", [NodeMeta(wide, "wide", 3), NodeMeta("a", "", 1)])
    size = (tmp_path / "edges.tsv").stat().st_size + (tmp_path / "nodes.jsonl").stat().st_size
    cfg = cli.PipelineConfig(edges_path=tmp_path / "edges.tsv", nodes_path=tmp_path / "nodes.jsonl")
    g, peak = traced_peak(cli._load, cfg)
    assert g.external_ids == ["a", "b", wide, wide + "x"]
    assert peak <= 4 * size, f"peak {peak} B is {peak / size:.2f} x the {size} input bytes"


def test_load_keeps_no_node_label(tmp_path):
    """The graph keeps no label: 1 KiB labels retain no more than empty ones, within a few bytes per node.

    2,000 nodes joined in pairs; the two node files differ only in their labels.
    """
    names = [f"v{i:04d}" for i in range(2000)]
    write_edges_tsv(tmp_path / "edges.tsv", list(zip(names[0::2], names[1::2])))
    retained = []
    for label in ("", "x" * 1024):
        nodes = tmp_path / f"nodes{len(label)}.jsonl"
        write_nodes_jsonl(nodes, [NodeMeta(name, label, 5) for name in names])
        g, kept = traced_retained(cli._load, cli.PipelineConfig(edges_path=tmp_path / "edges.tsv", nodes_path=nodes))
        assert g.n == len(names)
        retained.append(kept)
    assert retained[1] <= retained[0] + 4 * len(names), f"retained {retained} B"


def test_commands_import_neither_fractions_nor_numpy_ma(tmp_path):
    """``pipeline`` and the five staged subcommands leave both modules unimported.

    Each adds start-up time to every command; ``np.unique`` without a
    ``return_*`` flag imports ``numpy.ma``. The commands run in a fresh
    interpreter on a 400-node fixture.
    """
    edges, nodes = generate_kg_sparse(400, seed=3)
    write_edges_tsv(tmp_path / "edges.tsv", edges)
    write_nodes_jsonl(tmp_path / "nodes.jsonl", nodes)
    io = ["--edges", str(tmp_path / "edges.tsv"), "--nodes", str(tmp_path / "nodes.jsonl")]
    h, merged = str(tmp_path / "h.json"), str(tmp_path / "merged.json")
    calls = [
        ["pipeline", *io, "--out", str(tmp_path / "p"), "--merge-mode", "mrc"],
        ["decompose", *io, "--out", str(tmp_path / "dec.json")],
        ["hierarchy", *io, "--out", h],
        ["merge", *io, "--hierarchy", h, "--mode", "mrc", "--out", merged],
        ["stats", *io, "--hierarchy", merged, "--level", "l1", "--out", str(tmp_path / "stats.json")],
        ["sample", *io, "--hierarchy", merged, "--edge-fraction", "0.5", "--out", str(tmp_path / "sample.tsv")],
    ]
    script = (
        "import json, sys\n"
        "from corehier.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted({'fractions', 'numpy.ma'} & set(sys.modules))]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(calls)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * len(calls), []]


def _injected_failure(*args, **kwargs):
    raise InputError("injected failure")


class TestAtomicOutput:
    """A failed command leaves its earlier output byte-identical and no temporary file."""

    @pytest.mark.parametrize(
        "stage,target",
        [("decompose", "core_numbers"), ("hierarchy", "build_hierarchy"),
         ("merge", "merge_small_clusters"), ("stats", "community_stats"),
         ("sample", "round_robin_sample")],
    )
    def test_failed_pipeline_stage_keeps_previous_artifacts(
        self, example_inputs, tmp_path, capsys, monkeypatch, stage, target
    ):
        edges, nodes = example_inputs
        out = tmp_path / "o"
        argv = ["pipeline", "--edges", edges, "--nodes", nodes, "--out", str(out)]
        assert run(*argv, "--merge-mode", "m2hc") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == sorted(ARTIFACTS)
        monkeypatch.setattr(cli, target, _injected_failure)
        # mrc merging changes the merged hierarchy and every artifact after it,
        # so a partial commit would show
        assert run(*argv, "--merge-mode", "mrc") == 3
        assert f"stage {stage!r}: injected failure" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_artifact_write_keeps_previous_artifacts(self, example_inputs, tmp_path, monkeypatch):
        edges, nodes = example_inputs
        out = tmp_path / "o"
        argv = ["pipeline", "--edges", edges, "--nodes", nodes, "--out", str(out)]
        assert run(*argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def half_written(f, *args):
            f.write("#src\tdst\n")
            raise OSError("disk full")

        monkeypatch.setattr(fileio, "write_sample_tsv", half_written)
        cfg = cli.PipelineConfig(edges_path=Path(edges), nodes_path=Path(nodes), out_dir=out,
                                 merge_mode=cli.MergeMode.RESIDUAL_AND_TWO_HOP)
        with pytest.raises(ConfigError, match="sample.tsv: disk full"):
            cli.run_pipeline(cfg)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_subcommand_write_keeps_previous_out_file(
        self, example_inputs, tmp_path, monkeypatch
    ):
        edges, nodes = example_inputs
        target = tmp_path / "h.json"
        argv = ["hierarchy", "--edges", edges, "--nodes", nodes, "--out", str(target)]
        assert run(*argv) == 0
        before = target.read_bytes()

        def half_written(f, h, g):
            f.write('{\n  "attached_singletons": ')
            raise InputError("injected failure")

        monkeypatch.setattr(fileio, "write_hierarchy_json", half_written)
        assert run(*argv, "--max-cluster-size", "4") == 3
        assert target.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["edges.tsv", "nodes.jsonl", "h.json"]
        )

    def test_out_that_cannot_be_replaced_exits_2_and_leaves_no_temporary_file(
        self, example_inputs, tmp_path, capsys
    ):
        edges, nodes = example_inputs
        target = tmp_path / "a-directory"
        target.mkdir()
        assert run("decompose", "--edges", edges, "--nodes", nodes, "--out", str(target)) == 2
        assert f"error: cannot write {target}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory", "edges.tsv", "nodes.jsonl"]
        assert list(target.iterdir()) == []

    def test_out_in_a_missing_directory_exits_2(self, example_inputs, tmp_path, capsys):
        edges, nodes = example_inputs
        target = tmp_path / "missing" / "dec.json"
        assert run("decompose", "--edges", edges, "--nodes", nodes, "--out", str(target)) == 2
        assert "error: cannot write" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_merge_report_that_cannot_be_written_keeps_the_merged_out_file(
        self, example_inputs, tmp_path, capsys
    ):
        edges, nodes = example_inputs
        io = ["--edges", edges, "--nodes", nodes]
        h_path, merged = tmp_path / "h.json", tmp_path / "merged.json"
        assert run("hierarchy", *io, "--max-cluster-size", "16", "--out", str(h_path)) == 0
        merged.write_text("previous")
        report = tmp_path / "missing" / "r.json"
        argv = ["merge", *io, "--hierarchy", str(h_path), "--out", str(merged), "--report", str(report)]
        assert run(*argv) == 2
        assert f"error: cannot write {report}" in capsys.readouterr().err
        assert merged.read_text() == "previous"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.tsv", "h.json", "merged.json", "nodes.jsonl"]

    @pytest.mark.parametrize("out", ["new", "new/nested"])
    def test_failed_pipeline_removes_the_directories_it_created(
        self, example_inputs, tmp_path, monkeypatch, out
    ):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        assert run("pipeline", "--edges", str(tmp_path / "absent.tsv"), "--out", str(run_dir / out)) == 3
        assert list(run_dir.iterdir()) == []
        # A failure after some artifacts were staged in the new directory.
        edges, nodes = example_inputs
        monkeypatch.setattr(cli, "round_robin_sample", _injected_failure)
        assert run("pipeline", "--edges", edges, "--nodes", nodes, "--out", str(run_dir / out)) == 3
        assert list(run_dir.iterdir()) == []

    def test_failed_pipeline_keeps_an_existing_empty_out_directory(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        assert run("pipeline", "--edges", str(tmp_path / "absent.tsv"), "--out", str(out)) == 3
        assert out.is_dir() and list(out.iterdir()) == []

    def test_pipeline_artifact_that_is_not_a_file_exits_2_before_any_rename(
        self, example_inputs, tmp_path, capsys
    ):
        edges, nodes = example_inputs
        out = tmp_path / "o"
        argv = ["pipeline", "--edges", edges, "--nodes", nodes, "--out", str(out)]
        assert run(*argv) == 0
        (out / "sample.tsv").unlink()
        (out / "sample.tsv").mkdir()
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert run(*argv, "--merge-mode", "mrc") == 2
        assert f"cannot write {out / 'sample.tsv'}: not a regular file" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)


def _stdout_of(*argv) -> str:
    buf = StringIO()
    with redirect_stdout(buf):
        assert run(*argv) == 0
    return buf.getvalue()


class TestOutTargets:
    """``--out`` writes through symlinks and into devices, FIFOs and pipes in place."""

    def test_fifo_reader_gets_the_bytes_and_the_fifo_stays(self, example_inputs, tmp_path):
        edges, nodes = example_inputs
        argv = ["decompose", "--edges", edges, "--nodes", nodes]
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        # opening a FIFO blocks until the other end opens, so read in a thread
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run(*argv, "--out", str(fifo)) == 0
        reader.join(timeout=10)
        assert received == [_stdout_of(*argv).encode()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.tsv", "fifo", "nodes.jsonl"]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_dev_fd_pipe_gets_the_bytes(self, example_inputs):
        edges, nodes = example_inputs
        argv = ["decompose", "--edges", edges, "--nodes", nodes]
        r, w = os.pipe()
        try:
            # the example's decomposition is far below the pipe buffer, so this cannot block
            assert run(*argv, "--out", f"/dev/fd/{w}") == 0
        finally:
            os.close(w)
        with os.fdopen(r, "rb") as f:
            assert f.read() == _stdout_of(*argv).encode()

    def test_symlink_stays_a_link_and_its_target_gets_the_bytes(self, example_inputs, tmp_path):
        edges, nodes = example_inputs
        argv = ["decompose", "--edges", edges, "--nodes", nodes]
        real = tmp_path / "real.json"
        real.write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        assert run(*argv, "--out", str(link)) == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == _stdout_of(*argv)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["edges.tsv", "nodes.jsonl", "real.json", "link.json"]
        )

    def test_replaced_file_keeps_its_mode(self, example_inputs, tmp_path):
        edges, nodes = example_inputs
        target = tmp_path / "dec.json"
        target.write_text("old")
        target.chmod(0o640)
        assert run("decompose", "--edges", edges, "--nodes", nodes, "--out", str(target)) == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert target.read_text() != "old"

    def test_symlinked_pipeline_artifact_stays_a_link(self, example_inputs, tmp_path):
        edges, nodes = example_inputs
        out = tmp_path / "o"
        out.mkdir()
        real = tmp_path / "kept-sample.tsv"
        (out / "sample.tsv").symlink_to(real)
        argv = ["pipeline", "--edges", edges, "--nodes", nodes, "--out", str(out)]
        assert run(*argv) == 0
        assert (out / "sample.tsv").is_symlink()
        assert real.read_text().startswith("#src\tdst")
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)


LETTERS = [chr(ord("a") + i) for i in range(16)]


def _text_tokens(chars_per_token: float) -> dict[str, int]:
    """Token counts of the ``text_inputs`` nodes at ``chars_per_token``."""
    return {v: math.ceil((20 + 7 * i) / chars_per_token) for i, v in enumerate(LETTERS)}


@pytest.fixture()
def text_inputs(tmp_path):
    """The example graph with node texts and no token counts, so chars per token matters."""
    edges, nodes = tmp_path / "edges.tsv", tmp_path / "nodes.jsonl"
    write_edges_tsv(edges, three_level_example()[0])
    nodes.write_text("".join(json.dumps({"id": v, "text": "x" * (20 + 7 * i)}) + "\n"
                             for i, v in enumerate(LETTERS)))
    return ["--edges", str(edges), "--nodes", str(nodes)]


class TestStageOptionsReachTheirStage:
    """Each stage option changes what its stage writes, in every command that takes it."""

    def artifacts(self, tmp_path, io, command, *options) -> dict[str, Path]:
        """Run ``command`` with ``options``; its hierarchy, stats and sample files by name.

        ``sample`` and ``stats`` read a hierarchy built with the defaults.
        """
        out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        out.mkdir()
        if command == "pipeline":
            assert run("pipeline", *io, "--out", str(out), *options) == 0
            return {"hierarchy": out / "hierarchy_merged.json", "stats": out / "stats.json",
                    "sample": out / "sample.tsv"}
        h_path = out / "h.json"
        assert run("hierarchy", *io, "--out", str(h_path), *(options if command == "hierarchy" else ())) == 0
        if command == "hierarchy":
            return {"hierarchy": h_path}
        assert run(command, *io, "--hierarchy", str(h_path), "--out", str(out / command), *options) == 0
        return {"hierarchy": h_path, command: out / command}

    @staticmethod
    def costs(path: Path) -> dict[tuple[str, str], int]:
        rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
        assert rows
        return {(src, dst): int(cost) for src, dst, _, cost in rows}

    @staticmethod
    def lf_stats(files: dict[str, Path], tokens: dict[str, int], token_limit: int) -> tuple[dict, dict]:
        """The LF stats ``files`` hold, and those the library computes from their hierarchy."""
        from corehier.graph import NodeMeta, load_graph
        from corehier.stats import community_stats

        g = load_graph(three_level_example()[0], [NodeMeta(v, token_count=t) for v, t in tokens.items()])
        h = fileio.hierarchy_from_json_obj(json.loads(files["hierarchy"].read_text()), g)
        written = json.loads(files["stats"].read_text())
        written = written.get("lf", written)
        return written, community_stats(h, "LF", g, token_limit=token_limit).to_json_obj()

    @pytest.mark.parametrize("command", ["sample", "pipeline"])
    @pytest.mark.parametrize("overhead", ["0", "25"])
    def test_overhead_sets_the_cost_column(self, tmp_path, text_inputs, command, overhead):
        files = self.artifacts(tmp_path, text_inputs, command, "--overhead", overhead,
                               "--edge-fraction", "0.8")
        tokens = _text_tokens(4.0)
        for (src, dst), cost in self.costs(files["sample"]).items():
            assert cost == tokens[src] + tokens[dst] + int(overhead)

    @pytest.mark.parametrize("command", ["sample", "pipeline"])
    @pytest.mark.parametrize("chars", ["2", "5.5"])
    def test_chars_per_token_sets_the_costs(self, tmp_path, text_inputs, command, chars):
        files = self.artifacts(tmp_path, text_inputs, command, "--chars-per-token", chars,
                               "--edge-fraction", "0.8")
        tokens = _text_tokens(float(chars))
        for (src, dst), cost in self.costs(files["sample"]).items():
            assert cost == tokens[src] + tokens[dst] + 8

    @pytest.mark.parametrize("command", ["hierarchy", "pipeline"])
    @pytest.mark.parametrize("chars", ["2", "5.5"])
    def test_chars_per_token_sets_the_derived_cap(self, tmp_path, text_inputs, command, chars):
        files = self.artifacts(tmp_path, text_inputs, command, "--chars-per-token", chars)
        cap = json.loads(files["hierarchy"].read_text())["max_cluster_size"]
        assert cap == 8000 * 16 // sum(_text_tokens(float(chars)).values())

    @pytest.mark.parametrize("chars", ["2", "5.5"])
    def test_chars_per_token_sets_the_stats(self, tmp_path, text_inputs, chars):
        files = self.artifacts(tmp_path, text_inputs, "stats", "--chars-per-token", chars,
                               "--token-limit", "30")
        written, expected = self.lf_stats(files, _text_tokens(float(chars)), 30)
        assert written == expected

    @pytest.mark.parametrize("command", ["hierarchy", "pipeline"])
    @pytest.mark.parametrize("limit", ["100", "300"])
    def test_token_limit_sets_the_derived_cap(self, tmp_path, example_inputs, command, limit):
        # The example's 16 nodes hold 400 tokens.
        edges, nodes = example_inputs
        files = self.artifacts(tmp_path, ["--edges", edges, "--nodes", nodes], command, "--token-limit", limit)
        assert json.loads(files["hierarchy"].read_text())["max_cluster_size"] == int(limit) * 16 // 400

    @pytest.mark.parametrize("command", ["stats", "pipeline"])
    @pytest.mark.parametrize("limit", ["20", "45"])
    def test_token_limit_sets_the_stats(self, tmp_path, example_inputs, command, limit):
        edges, nodes = example_inputs
        files = self.artifacts(tmp_path, ["--edges", edges, "--nodes", nodes], command, "--token-limit", limit)
        tokens = {v: 10 + 2 * i for i, v in enumerate(LETTERS)}
        written, expected = self.lf_stats(files, tokens, int(limit))
        assert written == expected
        assert written != self.lf_stats(files, tokens, 8000)[1]

    @pytest.mark.parametrize("command", ["sample", "pipeline"])
    def test_token_budget_bounds_the_sample(self, tmp_path, text_inputs, command):
        picked = {}
        for budget in (60, 400):
            files = self.artifacts(tmp_path, text_inputs, command, "--token-budget", str(budget))
            costs = self.costs(files["sample"])
            assert sum(costs.values()) <= budget
            picked[budget] = len(costs)
        assert picked[60] < picked[400]


def test_subcommand_flags_are_pinned():
    """Each subcommand's option strings, and which are required; renaming one must be deliberate."""
    io = {"--edges": True, "--nodes": False, "--out": False}
    expected = {
        "decompose": io,
        "hierarchy": {**io, "--max-cluster-size": False, "--token-limit": False, "--chars-per-token": False},
        "merge": {**io, "--hierarchy": True, "--mode": False, "--report": False},
        "sample": {**io, "--hierarchy": True, "--token-budget": False, "--edge-fraction": False,
                   "--overhead": False, "--chars-per-token": False},
        "stats": {**io, "--hierarchy": True, "--level": False, "--token-limit": False,
                  "--chars-per-token": False},
        "degeneracy": {**io, "--epsilon": True, "--d": True},
        "verify-bounds": {**io, "--d": True, "--seed": False},
        "pipeline": {**io, "--out": True, "--max-cluster-size": False, "--token-limit": False,
                     "--chars-per-token": False, "--merge-mode": False, "--token-budget": False,
                     "--edge-fraction": False, "--overhead": False},
        "gen-fixture": {"--n": True, "--profile": False, "--seed": False, "--out": True},
    }
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {flag: action.required for action in sub._actions for flag in action.option_strings
               if flag not in ("-h", "--help")}
        for name, sub in subparsers.choices.items()
    }
    assert found == expected


@pytest.mark.parametrize(
    "command",
    [["pipeline", "--out", "o"], ["hierarchy"], ["stats", "--hierarchy", "h.json"]],
)
@pytest.mark.parametrize("limit", ["0", "-5"])
def test_token_limit_below_one_exits_2_before_reading_input(tmp_path, capsys, command, limit):
    # The edge file does not exist: reading it first would exit 3 instead.
    argv = [command[0], "--edges", str(tmp_path / "absent.tsv"), "--token-limit", limit]
    argv += [str(tmp_path / arg) if arg in ("o", "h.json") else arg for arg in command[1:]]
    assert main(argv) == 2
    assert "error: token limit must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [["pipeline", "--out", "o"], ["hierarchy"], ["stats", "--hierarchy", "h.json"],
     ["sample", "--hierarchy", "h.json", "--edge-fraction", "0.5"]],
)
@pytest.mark.parametrize("chars", ["nan", "inf", "0", "-2.5"])
def test_chars_per_token_not_finite_and_positive_exits_2_before_reading_input(
    tmp_path, capsys, command, chars
):
    # With NaN, pricing a text raises ValueError in ceil(len / NaN); with inf,
    # every nonempty text costs 1 token.
    argv = [command[0], "--edges", str(tmp_path / "absent.tsv"), "--chars-per-token", chars]
    argv += [str(tmp_path / arg) if arg in ("o", "h.json") else arg for arg in command[1:]]
    assert main(argv) == 2
    assert "error: chars per token must be finite and positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,message",
    [
        ("pipeline --out o --edge-fraction 0", "edge fraction must be in (0, 1]"),
        ("pipeline --out o --edge-fraction 1.5", "edge fraction must be in (0, 1]"),
        ("pipeline --out o --edge-fraction nan", "edge fraction must be in (0, 1]"),
        ("sample --hierarchy h.json --edge-fraction 0", "edge fraction must be in (0, 1]"),
        ("sample --hierarchy h.json --edge-fraction 1.5", "edge fraction must be in (0, 1]"),
        ("sample --hierarchy h.json --edge-fraction nan", "edge fraction must be in (0, 1]"),
        ("pipeline --out o --token-budget 0", "budget must be positive"),
        ("pipeline --out o --token-budget -3", "budget must be positive"),
        ("sample --hierarchy h.json --token-budget 0", "budget must be positive"),
        ("sample --hierarchy h.json --token-budget -3", "budget must be positive"),
        ("pipeline --out o --overhead -1", "edge overhead must be >= 0"),
        ("sample --hierarchy h.json --token-budget 50 --overhead -1", "edge overhead must be >= 0"),
        ("pipeline --out o --max-cluster-size 1", "max cluster size must be at least 2"),
        ("hierarchy --max-cluster-size 1", "max cluster size must be at least 2"),
        ("pipeline --out o --merge-mode bogus", "unknown merge mode 'bogus'"),
        ("merge --hierarchy h.json --mode bogus", "unknown merge mode 'bogus'"),
        ("sample --hierarchy h.json", "one of --token-budget or --edge-fraction is required"),
        ("pipeline --out o --max-cluster-size 4 --token-limit 100",
         "--max-cluster-size and --token-limit are mutually exclusive"),
        ("hierarchy --max-cluster-size 4 --token-limit 100",
         "--max-cluster-size and --token-limit are mutually exclusive"),
        ("pipeline --out o --token-budget 5 --edge-fraction 0.5",
         "--token-budget and --edge-fraction are mutually exclusive"),
        ("sample --hierarchy h.json --token-budget 5 --edge-fraction 0.5",
         "--token-budget and --edge-fraction are mutually exclusive"),
        ("degeneracy --d -1 --epsilon 0.1", "degree cutoff d must be >= 0"),
        ("degeneracy --d 1 --epsilon 0", "epsilon must be finite and positive"),
        ("degeneracy --d 1 --epsilon nan", "epsilon must be finite and positive"),
        ("verify-bounds --d -1", "degree cutoff d must be >= 0"),
        ("verify-bounds --d 1 --seed -1", "seed must be >= 0"),
        ("degeneracy --d 9223372036854775808 --epsilon 0.1", "degree cutoff d must be < 2**63"),
        ("verify-bounds --d 9223372036854775808", "degree cutoff d must be < 2**63"),
        pytest.param(f"degeneracy --d {10**400} --epsilon 0.1", "degree cutoff d must be < 2**63",
                     id="degeneracy-d-10**400"),
        pytest.param(f"verify-bounds --d {10**400}", "degree cutoff d must be < 2**63",
                     id="verify-bounds-d-10**400"),
    ],
)
def test_bad_stage_option_exits_2_before_reading_input(tmp_path, capsys, command, message):
    # The edge file does not exist: reading it first would exit 3 instead.
    name, *options = command.split()
    argv = [name, "--edges", str(tmp_path / "absent.tsv")]
    argv += [str(tmp_path / arg) if arg in ("o", "h.json") else arg for arg in options]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_fields = st.sampled_from([b"a", b"b", b"c", b"a b", b"", b" ", b"#", b"1.5", b"nan", b"-0",
                           b"x\xff", b"\xc3\xa9", b"\r", b"\x00", b"\xed\xa0\x80"])
edge_files = st.lists(
    st.binary(max_size=16) | st.lists(_fields, min_size=1, max_size=4).map(b"\t".join),
    max_size=6,
).map(b"\n".join)
_node_values = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
                | st.sampled_from(["a", "b", "c", "\ud800"]) | st.lists(st.integers(), max_size=2)
                | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_node_lines = (
    st.binary(max_size=24)
    | st.fixed_dictionaries(
        {"id": st.sampled_from(["a", "b", "c"]) | _node_values},
        optional={"label": _node_values, "tokens": _node_values, "text": _node_values},
    ).map(lambda obj: json.dumps(obj).encode())
    | st.sampled_from([b'{"id": "a", "tokens": ' + b"9" * 5000 + b"}", b'{"id": "a", "text": 5}',
                       b"[" * 5000, b"\xef\xbb\xbf{}"])
)
node_files = st.lists(_node_lines, max_size=3).map(b"\n".join)


@settings(max_examples=300, deadline=None)
# Half the time one file is valid, so that the other one is read to its end.
@given(edges=edge_files | st.just(b"a\tb\nb\tc\n"), nodes=node_files | st.just(b'{"id": "a"}\n'))
def test_arbitrary_input_bytes_exit_0_or_3_without_traceback(fuzz_dir, edges, nodes):
    (fuzz_dir / "edges.tsv").write_bytes(edges)
    (fuzz_dir / "nodes.jsonl").write_bytes(nodes)
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = main(["decompose", "--edges", str(fuzz_dir / "edges.tsv"),
                     "--nodes", str(fuzz_dir / "nodes.jsonl")])
    assert code in (0, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


class TestGenFixture:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("gen-fixture", "--n", "200", "--seed", "9", "--out", str(out)) == 0
        assert (a / "edges.tsv").read_bytes() == (b / "edges.tsv").read_bytes()
        assert (a / "nodes.jsonl").read_bytes() == (b / "nodes.jsonl").read_bytes()

    def test_unknown_profile_exits_2(self, tmp_path):
        assert run("gen-fixture", "--n", "50", "--profile", "dense", "--out", str(tmp_path)) == 2

    def test_negative_seed_exits_2_before_creating_out(self, tmp_path, capsys):
        out = tmp_path / "fix"
        assert run("gen-fixture", "--n", "50", "--seed", "-1", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0\n"
        assert captured.out == ""
        assert not out.exists()

    def test_n_past_int32_exits_2_before_creating_out(self, tmp_path, capsys):
        # Only a value that fails before any allocation: a large valid n would build the graph.
        out = tmp_path / "fix"
        assert run("gen-fixture", "--n", str(10**400), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: kg_sparse profile needs fewer than 2**31 nodes\n"
        assert captured.out == ""
        assert not out.exists()

    def test_out_under_a_regular_file_exits_2(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        assert run("gen-fixture", "--n", "50", "--out", str(afile / "x")) == 2
        captured = capsys.readouterr()
        assert f"error: cannot write {afile / 'x'}" in captured.err
        assert captured.out == ""
        assert afile.read_text() == "kept"

    @pytest.mark.parametrize("out", ["new", "new/nested"])
    def test_failed_write_removes_the_directories_it_created(self, tmp_path, monkeypatch, out):
        monkeypatch.setattr(fileio, "nodes_to_jsonl", _injected_failure)
        assert run("gen-fixture", "--n", "50", "--out", str(tmp_path / out)) == 3
        assert list(tmp_path.iterdir()) == []

    def test_generated_fixture_feeds_pipeline(self, tmp_path):
        fix = tmp_path / "fix"
        assert run("gen-fixture", "--n", "300", "--seed", "2", "--out", str(fix)) == 0
        assert (
            run("pipeline", "--edges", str(fix / "edges.tsv"),
                "--nodes", str(fix / "nodes.jsonl"), "--out", str(tmp_path / "o"))
            == 0
        )
