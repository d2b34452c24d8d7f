import argparse
import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delcodes
from delcodes import (
    Code,
    cli,
    closed_form_generation,
    enumerate_dominant_pairs,
    is_t_deletion_correcting,
    vt_code,
)
from delcodes import codes, dominance, words
from delcodes.cli import main

SRC = str(Path(delcodes.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=SRC)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestDist:
    def test_deletion_metric(self, capsys):
        assert run(capsys, "dist", "00011", "10101", "--metric", "deletion") == (
            0, "2\n", "",
        )

    def test_levenshtein_metric(self, capsys):
        code, out, _ = run(capsys, "dist", "0100", "110101", "--metric", "levenshtein")
        assert (code, out) == (0, "4\n")

    def test_hamming_metric(self, capsys):
        code, out, _ = run(capsys, "dist", "00011", "10101", "--metric", "hamming")
        assert (code, out) == (0, "3\n")

    def test_default_metric_is_deletion(self, capsys):
        code, out, _ = run(capsys, "dist", "00000", "11111")
        assert (code, out) == (0, "5\n")

    def test_unequal_lengths_domain_error(self, capsys):
        code, _, err = run(capsys, "dist", "0100", "110101")
        assert code == 1 and "error" in err

    def test_text_and_json_agree(self, capsys):
        _, text_out, _ = run(capsys, "dist", "00011", "10101", "--metric", "deletion")
        _, json_out, _ = run(
            capsys, "dist", "00011", "10101", "--metric", "deletion", "--json"
        )
        assert json.loads(json_out)["distance"] == int(text_out)


class TestBall:
    def test_constant_word(self, capsys):
        assert run(capsys, "ball", "00000", "--t", "1") == (0, "0000\n", "")

    def test_sorted_listing(self, capsys):
        code, out, _ = run(capsys, "ball", "0100", "--t", "1")
        assert code == 0 and out.splitlines() == ["000", "010", "100"]

    def test_bad_word_is_domain_error(self, capsys):
        code, _, err = run(capsys, "ball", "01a", "--t", "1")
        assert code == 1 and "error" in err

    def test_t_out_of_range(self, capsys):
        code, _, err = run(capsys, "ball", "01", "--t", "5")
        assert code == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "ball", "01")
        assert code == 2

    def test_json_roundtrip(self, capsys):
        _, out, _ = run(capsys, "ball", "0100", "--t", "1", "--json")
        doc = json.loads(out)
        assert canonical(doc) == out.strip()
        assert doc["ball"] == ["000", "010", "100"]


class TestDominate:
    def test_yes_with_witness_counts(self, capsys):
        code, out, _ = run(capsys, "dominate", "1011", "0111", "--t", "1")
        assert code == 0 and out.startswith("yes")
        assert "|D_1(v)|=2" in out and "|D_1(u)|=3" in out

    def test_no(self, capsys):
        assert run(capsys, "dominate", "0111", "1011", "--t", "1") == (0, "no\n", "")

    def test_json_fields(self, capsys):
        _, out, _ = run(capsys, "dominate", "10101", "01110", "--t", "2", "--json")
        doc = json.loads(out)
        assert doc["dominant"] is True
        assert doc["ball_v"] <= doc["ball_u"]

    @pytest.mark.parametrize("u, v, t", [
        ("1011", "0111", 1), ("0111", "1011", 1), ("0110", "0110", 2),
        ("01" * 8, "0011" * 4, 3),
    ])
    def test_builds_each_ball_once(self, capsys, monkeypatch, u, v, t):
        built = []
        ball = words._ball_packed

        def recorded(*args):
            built.append(args)
            return ball(*args)

        # is_dominant looks the builder up in the dominance module
        monkeypatch.setattr(words, "_ball_packed", recorded)
        monkeypatch.setattr(dominance, "_ball_packed", recorded)
        code, _, _ = run(capsys, "dominate", u, v, "--t", str(t), "--json")
        assert code == 0
        assert sorted(built) == sorted([(int(u, 2), len(u), t), (int(v, 2), len(v), t)])


class TestEnumerate:
    def test_brute_n2(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--t", "1")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 6
        assert lines[0] == "01 00 brute"

    def test_closed_and_brute_agree(self, capsys):
        _, brute, _ = run(capsys, "enumerate", "--n", "5", "--t", "2")
        _, closed, _ = run(
            capsys, "enumerate", "--n", "5", "--t", "2", "--method", "closed"
        )
        pairs_of = lambda text: {
            tuple(line.split()[:2]) for line in text.splitlines()
        }
        assert pairs_of(brute) == pairs_of(closed)

    def test_closed_json_carries_sources(self, capsys):
        _, out, _ = run(
            capsys, "enumerate", "--n", "4", "--t", "1", "--method", "closed", "--json"
        )
        doc = json.loads(out)
        assert len(doc["pairs"]) == 14
        assert all(p["sources"] for p in doc["pairs"])

    def test_cap_is_domain_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "15", "--t", "1")
        assert code == 1

    @pytest.mark.parametrize(
        "n, t, method",
        [(6, 1, "brute"), (12, 3, "brute"), (9, 2, "closed"), (24, 2, "closed")],
    )
    def test_json_is_the_dumps_of_the_pair_dicts(self, capsys, n, t, method):
        # (9, 2) has pairs with several sources, and (24, 2) 85 KB of pairs
        argv = ["enumerate", "--n", str(n), "--t", str(t), "--method", method]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        if method == "closed":
            gen = closed_form_generation(n, t)
            rows = [(p.u, p.v, list(gen.provenance[p])) for p in gen.pairs]
        else:
            rows = [(p.u, p.v, ["brute"]) for p in enumerate_dominant_pairs(n, t)]
        if n == 9:
            assert any(len(tags) > 1 for _, _, tags in rows)
        doc = {
            "n": n,
            "t": t,
            "method": method,
            "pairs": [
                {"u": str(u), "v": str(v), "sources": tags} for u, v, tags in rows
            ],
        }
        assert out == cli._dumps(doc) + "\n"


class TestVerify:
    def test_confirmed_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--t", "1")
        assert code == 0
        assert "missing 0" in out and "spurious 0" in out

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6", "--t", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert canonical(doc) == out.strip()
        assert doc["brute_count"] == doc["generated_count"] == 182

    def test_unsupported_t_is_domain_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "5", "--t", "3")
        assert code == 1

    def test_a_wrong_row_is_reported_pair_by_pair(self, capsys, monkeypatch):
        # the boundary-swap row read backwards: each instance claims the
        # two-run word dominates its swap, so the true pairs go missing.  The
        # row filter drops every instance that is not dominant, so a wrong
        # row alone adds no pair: the filter is bypassed to let them through
        swap = dominance.BOUNDARY_SWAP
        backwards = swap._replace(u_runs=swap.v_runs, v_runs=swap.u_runs)
        monkeypatch.setattr(dominance, "_ROWS", {1: (backwards,)})
        monkeypatch.setattr(dominance, "is_dominant", lambda u, v, t: u != v)
        code, out, _ = run(capsys, "verify", "--n", "5", "--t", "1")
        assert code == 3
        lines = out.splitlines()
        assert "missing 8, spurious 8" in lines[0]
        assert "  missing: u=00010 v=00001" in lines
        assert "  spurious: u=00001 v=00010" in lines
        assert len(lines) == 17


class TestCheck:
    @pytest.fixture
    def example_file(self, tmp_path):
        path = tmp_path / "example.code"
        path.write_text("# example\n00000\n11111\n00011\n11000\n10101\n01110\n")
        return str(path)

    def test_basic_report(self, capsys, example_file):
        code, out, _ = run(capsys, "check", example_file, "--t", "1")
        assert code == 0
        assert "deletion-correcting(t=1): yes" in out

    def test_perfect_and_basic_flags(self, capsys, example_file):
        code, out, _ = run(
            capsys, "check", example_file, "--t", "1", "--perfect", "--basic"
        )
        assert code == 0
        assert "perfect(t=1): no" in out
        assert "basic(t=1): yes" in out

    def test_collision_witness_printed(self, capsys, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text("00000\n00001\n")
        code, out, _ = run(capsys, "check", str(path), "--t", "1")
        assert code == 0
        assert "deletion-correcting(t=1): no" in out
        assert "00000" in out and "00001" in out

    def test_json_fields(self, capsys, example_file):
        _, out, _ = run(
            capsys, "check", example_file, "--t", "1", "--perfect", "--basic", "--json"
        )
        doc = json.loads(out)
        assert doc["deletion_correcting"] is True
        assert doc["perfect"] is False
        assert doc["basic"] is True
        assert doc["collision"] is None

    def test_perfect_builds_each_ball_once(self, capsys, monkeypatch, tmp_path):
        # the perfect check reads the union of the balls that the collision
        # walk built; VT_0 at n = 8 is perfect
        vt8 = vt_code(8, 0)
        path = tmp_path / "vt8.code"
        path.write_text(vt8.to_text())
        calls = []
        ball = codes._ball_packed

        def counted(bits, n, t):
            calls.append(bits)
            return ball(bits, n, t)

        monkeypatch.setattr(codes, "_ball_packed", counted)
        code, out, _ = run(
            capsys, "check", str(path), "--t", "1", "--perfect", "--json"
        )
        doc = json.loads(out)
        assert code == 0 and doc["deletion_correcting"] and doc["perfect"]
        assert sorted(calls) == list(vt8.packed()) and len(calls) == 30

    def test_missing_file_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.code"), "--t", "1")
        assert code == 1 and "error" in err

    def test_not_correcting_perfect_not_applicable(self, capsys, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text("00000\n00001\n")
        code, out, _ = run(capsys, "check", str(path), "--t", "1", "--perfect")
        assert code == 0 and "not applicable" in out

    def test_one_symbol_words_admit_no_deletion_count(self, capsys, tmp_path):
        path = tmp_path / "one.code"
        path.write_text("0\n1\n")
        code, out, err = run(capsys, "check", str(path), "--t", "1")
        assert (code, out) == (1, "")
        assert "words of length 1 admit no deletion count" in err


class TestSearch:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "5", "--t", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("optimum 6")
        witness = Code(lines[1:])
        assert len(witness) == 6 and is_t_deletion_correcting(witness, 1)

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "5", "--t", "1", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["optimum"] == 6 and doc["exhausted"] is True
        assert canonical(doc) == out.strip()

    def test_flags_change_nothing_at_small_n(self, capsys):
        _, a, _ = run(capsys, "search", "--n", "5", "--t", "1", "--json")
        _, b, _ = run(
            capsys,
            "search", "--n", "5", "--t", "1",
            "--no-basic-prune", "--no-force-constants", "--json",
        )
        assert json.loads(a)["optimum"] == json.loads(b)["optimum"]

    def test_canonical_flag_deterministic(self, capsys):
        _, a, _ = run(capsys, "search", "--n", "5", "--t", "1", "--canonical", "--json")
        _, b, _ = run(
            capsys,
            "search", "--n", "5", "--t", "1", "--canonical", "--no-basic-prune",
            "--json",
        )
        assert json.loads(a)["witness"] == json.loads(b)["witness"]

    def test_canonical_witness_is_least_among_candidates(self, capsys):
        # 1010 dominates 1100, so only --no-basic-prune keeps the smaller code
        witnesses = []
        for extra in ((), ("--no-basic-prune",)):
            _, out, _ = run(
                capsys, "search", "--n", "4", "--t", "1", "--canonical", *extra,
                "--json",
            )
            witnesses.append(json.loads(out)["witness"])
        assert witnesses == [
            ["0000", "0011", "1100", "1111"],
            ["0000", "0011", "1010", "1111"],
        ]

    def test_enumerate_lists_classes(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "5", "--t", "1", "--enumerate")
        assert code == 0
        assert out.count("# class") == 2

    def test_enumerate_json(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "5", "--t", "1", "--enumerate", "--json"
        )
        doc = json.loads(out)
        assert code == 0 and len(doc["classes"]) == 2 and doc["optimum"] == 6

    def test_enumerate_conflicts_with_canonical(self, capsys):
        code, _, err = run(
            capsys, "search", "--n", "5", "--t", "1", "--enumerate", "--canonical"
        )
        assert code == 2 and "conflict" in err

    def test_budget_exhaustion_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            "search", "--n", "7", "--t", "1",
            "--no-basic-prune", "--budget", "0.001",
        )
        assert code == 4
        assert "lower-bound" in out

    @pytest.mark.parametrize("flags, err", [
        (("--n", "8", "--canonical", "--budget", "0.005"),
         "error: canonical witness ran out of budget\n"),
        (("--n", "7", "--enumerate", "--budget", "0.001"),
         "error: enumeration at n=7, t=1 ran out of budget\n"),
    ])
    def test_budget_ends_a_pass_with_only_an_error(self, capsys, flags, err):
        # the root settles n = 8 at once, so the canonical pass is what the
        # budget stops; neither pass has a code or interval to print
        code, out, stderr = run(capsys, "search", "--t", "1", *flags, "--json")
        assert (code, out, stderr) == (4, "", err)

    def test_nan_budget_is_domain_error(self, capsys):
        code, out, err = run(capsys, "search", "--n", "9", "--t", "1", "--budget", "nan")
        assert code == 1 and not out and "budget" in err

    def test_unlimited_budget_changes_no_answer(self, capsys):
        # --budget 0 and --budget inf both mean no deadline, and the default
        # 600 s never binds on these jobs
        for job in (("--n", "9", "--t", "2"), ("--n", "7", "--t", "1", "--enumerate")):
            docs = []
            for budget in ((), ("--budget", "0"), ("--budget", "inf")):
                code, out, _ = run(capsys, "search", *job, *budget, "--json")
                doc = json.loads(out)
                doc.pop("wall_time_ms", None)
                docs.append((code, doc))
            assert docs[0][0] == 0 and docs[1] == docs[2] == docs[0], job

    def test_threads_flag(self, capsys):
        _, a, _ = run(capsys, "search", "--n", "5", "--t", "1", "--json")
        _, b, _ = run(
            capsys, "search", "--n", "5", "--t", "1", "--threads", "2", "--json"
        )
        assert json.loads(a)["optimum"] == json.loads(b)["optimum"]

    def test_cap_is_domain_error(self, capsys):
        code, _, _ = run(capsys, "search", "--n", "13", "--t", "1")
        assert code == 1


class TestVt:
    def test_code_file_output_parses(self, capsys):
        code, out, _ = run(capsys, "vt", "--n", "5", "--a", "0")
        assert code == 0
        parsed = Code.from_text(out)
        assert parsed == vt_code(5, 0)

    def test_json(self, capsys):
        _, out, _ = run(capsys, "vt", "--n", "5", "--a", "0", "--json")
        doc = json.loads(out)
        assert doc["size"] == 6 and "00000" in doc["words"]

    def test_bad_residue_is_domain_error(self, capsys):
        code, _, _ = run(capsys, "vt", "--n", "5", "--a", "6")
        assert code == 1

    @pytest.mark.parametrize("n", ["63", "70"])
    def test_length_past_word_limit_is_domain_error(self, capsys, n):
        code, out, err = run(capsys, "vt", "--n", n, "--a", "0")
        assert (code, out) == (1, "") and "out of range" in err

    def test_length_past_cap_is_refused_at_once(self):
        # a fresh process with a timeout, as the 2**62-word scan never ends
        proc = subprocess.run(
            [sys.executable, "-m", "delcodes.cli", "vt", "--n", "62", "--a", "0"],
            env=ENV, capture_output=True, text=True, timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "out of range" in proc.stderr

    def test_pipes_into_check(self, capsys, tmp_path):
        _, out, _ = run(capsys, "vt", "--n", "6", "--a", "3")
        path = tmp_path / "vt.code"
        path.write_text(out)
        code, out, _ = run(capsys, "check", str(path), "--t", "1")
        assert code == 0 and "deletion-correcting(t=1): yes" in out


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_closed_stdout_ends_as_sigpipe(self):
        # about 85 KB of pairs, more than a pipe holds, so a write fails
        # once the reader has closed its end, as under `| head -1`
        with subprocess.Popen(
            [sys.executable, "-m", "delcodes.cli", "enumerate", "--n", "24",
             "--t", "2", "--method", "closed"],
            env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            assert proc.stdout.readline().startswith("0" * 23 + "1 ")
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == ""


# each subcommand's options: (required, default, type) by option string
OPTIONS = {
    "ball": {"--t": (True, None, int)},
    "dist": {"--metric": (False, "deletion", None)},
    "dominate": {"--t": (True, None, int)},
    "enumerate": {
        "--n": (True, None, int), "--t": (True, None, int),
        "--method": (False, "brute", None),
    },
    "verify": {"--n": (True, None, int), "--t": (True, None, int)},
    "check": {
        "--t": (True, None, int), "--perfect": (False, False, None),
        "--basic": (False, False, None),
    },
    "search": {
        "--n": (True, None, int), "--t": (True, None, int),
        "--no-basic-prune": (False, False, None),
        "--no-force-constants": (False, False, None),
        "--enumerate": (False, False, None), "--canonical": (False, False, None),
        "--threads": (False, 1, int), "--budget": (False, 600.0, float),
    },
    "vt": {"--n": (True, None, int), "--a": (True, None, int)},
}


class TestOptions:
    def test_each_subcommand_has_its_options(self):
        (subs,) = [
            a.choices
            for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert list(subs) == list(OPTIONS)
        for name, sub in subs.items():
            found = {
                a.option_strings[-1]: (a.required, a.default, a.type)
                for a in sub._actions
                if a.option_strings and a.dest != "help"
            }
            # --json on every subcommand, a flag off by default
            assert found == {**OPTIONS[name], "--json": (False, False, None)}, name


class TestCollector:
    @pytest.mark.parametrize("argv", [
        ["search", "--n", "5", "--t", "1"],
        ["verify", "--n", "5", "--t", "1"],
        ["check", "FILE", "--t", "1", "--basic"],
        ["ball", "0110", "--t", "1"],
        ["dist", "0110", "1001"],
        ["dominate", "0110", "0101", "--t", "1"],
        ["vt", "--n", "5", "--a", "0"],
        ["enumerate", "--n", "5", "--t", "1", "--method", "closed"],
    ])
    def test_every_job_freezes_the_heap(self, capsys, tmp_path, argv):
        # the one freeze is in main, so the jobs that build no table get it too
        path = tmp_path / "vt5.code"
        path.write_text(vt_code(5, 0).to_text())
        frozen = gc.get_freeze_count()
        code, _, _ = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
        assert code == 0 and gc.get_freeze_count() > frozen


class TestJsonDiscipline:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ball", "0100", "--t", "1"],
            ["dist", "00011", "10101", "--metric", "levenshtein"],
            ["dominate", "1011", "0111", "--t", "1"],
            ["enumerate", "--n", "4", "--t", "1", "--method", "closed"],
            ["verify", "--n", "5", "--t", "2"],
            ["search", "--n", "4", "--t", "1"],
            ["search", "--n", "4", "--t", "1", "--enumerate"],
            ["vt", "--n", "6", "--a", "2"],
        ],
    )
    def test_every_json_document_reencodes_byte_identically(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert canonical(json.loads(out)) == out.strip()

    def test_search_text_and_json_numbers_agree(self, capsys):
        _, text, _ = run(capsys, "search", "--n", "5", "--t", "1")
        _, js, _ = run(capsys, "search", "--n", "5", "--t", "1", "--json")
        assert int(text.split()[1]) == json.loads(js)["optimum"]

    def test_verify_text_and_json_numbers_agree(self, capsys):
        _, text, _ = run(capsys, "verify", "--n", "5", "--t", "2")
        _, js, _ = run(capsys, "verify", "--n", "5", "--t", "2", "--json")
        doc = json.loads(js)
        assert f"enumerated {doc['brute_count']}" in text
        assert f"generated {doc['generated_count']}" in text

    def test_repeated_runs_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "search", "--n", "5", "--t", "1",
                          "--canonical", "--json")
        _, second, _ = run(capsys, "search", "--n", "5", "--t", "1",
                           "--canonical", "--json")
        a, b = json.loads(first), json.loads(second)
        a.pop("wall_time_ms"), b.pop("wall_time_ms")
        assert a == b


SEARCH_MODULES = {"words", "codes", "search", "rows", "_root_data"}


class TestColdStart:
    """Each CLI job is a fresh interpreter, so what it imports is paid every time."""

    @staticmethod
    def python(*args):
        return subprocess.run(
            [sys.executable, *args], env=ENV, capture_output=True, text=True,
            timeout=120, check=True,
        ).stdout

    def modules_after(self, *argv):
        """The modules loaded once cli.main has run argv in a fresh process."""
        out = self.python(
            "-c",
            "import sys\n"
            "from delcodes import cli\n"
            "cli.main(sys.argv[1:])\n"
            "print(sorted(sys.modules))",
            *argv, "--json",
        )
        return set(ast.literal_eval(out.splitlines()[-1]))

    # README's table in "Cold start and the pair tables", row by row
    @pytest.mark.parametrize("argv,modules", [
        (("ball", "0110", "--t", "1"), {"words"}),
        (("dist", "0110", "1001"), {"words"}),
        (("dominate", "0110", "0101", "--t", "1"), {"words"}),
        (("enumerate", "--n", "5", "--t", "1"), {"words", "dominance"}),
        (("verify", "--n", "5", "--t", "1"), {"words", "dominance"}),
        (("check", "CODE", "--t", "1"), {"words", "codes"}),
        (("check", "CODE", "--t", "1", "--basic"), {"words", "codes", "dominance"}),
        (("vt", "--n", "6", "--a", "0"), {"words", "codes"}),
        *(
            (("search", "--n", "7", "--t", "1", *mode), SEARCH_MODULES)
            for mode in ((), ("--canonical",), ("--threads", "2"))
        ),
        (("search", "--n", "6", "--t", "2", "--enumerate"), SEARCH_MODULES),
    ])
    def test_each_job_loads_only_its_modules(self, tmp_path, argv, modules):
        code = tmp_path / "example.code"
        code.write_text("00000\n11111\n00011\n11000\n10101\n01110\n")
        argv = [str(code) if a == "CODE" else a for a in argv]
        loaded = self.modules_after(*argv)
        # the row generator and its simplex live in tools/, which no job loads
        assert "root_data" not in loaded
        assert {m for m in loaded if m.split(".")[0] == "delcodes"} == {
            "delcodes", "delcodes.cli", *(f"delcodes.{m}" for m in modules)
        }

    @pytest.mark.parametrize("argv", [
        ("search", "--n", "7", "--t", "1"),
        ("search", "--n", "6", "--t", "2", "--enumerate"),
    ])
    def test_search_leaves_out_the_dominance_module(self, argv):
        loaded = self.modules_after(*argv)
        assert "delcodes.search" in loaded
        assert "delcodes.dominance" not in loaded

    def test_verify_loads_the_dominance_module(self):
        assert "delcodes.dominance" in self.modules_after("verify", "--n", "6", "--t", "1")

    def test_import_leaves_out_the_process_pool_and_dataclasses(self):
        out = self.python(
            "-c", "import delcodes.cli, sys; print(sorted(sys.modules))"
        )
        loaded = set(ast.literal_eval(out))
        # no library module: each handler loads its own when it runs
        assert {m for m in loaded if m.split(".")[0] == "delcodes"} == {
            "delcodes", "delcodes.cli"
        }
        for name in ("concurrent.futures", "multiprocessing", "dataclasses"):
            assert name not in loaded

    def test_threads_import_the_pool_when_needed(self):
        out = self.python(
            "-m", "delcodes.cli", "search", "--n", "7", "--t", "1",
            "--threads", "2", "--json",
        )
        doc = json.loads(out)
        assert doc["optimum"] == 16 and doc["exhausted"]

    def test_pair_tables_leave_the_collected_generations(self):
        # a fresh process, with no freeze: the first collection pass stops
        # tracking the rows and pairs, tuples of ints
        out = self.python(
            "-c",
            "import gc\n"
            "from delcodes.dominance import _dominant_pairs_packed\n"
            "from delcodes.words import _ball_table\n"
            "pairs = _dominant_pairs_packed(10, 2)\n"
            "balls = _ball_table(10, 2)\n"
            "gc.collect()\n"
            "print(len(balls), len(pairs), sum(map(gc.is_tracked, balls + pairs)))",
        )
        assert out.split() == ["1024", "394", "0"]

    def test_unions_leave_no_tuples_on_the_free_lists(self):
        # unpacking a bare map into set().union left about 400 KB of
        # argument tuples on the free lists after the (14, 2) scan and
        # 450 KB after the (12, 3) table; through a list, 32 and 134 KB
        out = self.python(
            "-c",
            "import tracemalloc\n"
            "from delcodes.dominance import _dominant_pairs_packed\n"
            "from delcodes.words import _ball_table\n"
            "_ball_table(13, 1)\n"
            "_ball_table(11, 2)\n"
            "tracemalloc.start()\n"
            "_dominant_pairs_packed.__wrapped__(14, 2)\n"
            "scan = tracemalloc.get_traced_memory()[0]\n"
            "_ball_table.__wrapped__(12, 3)\n"
            "print(scan, tracemalloc.get_traced_memory()[0] - scan)",
        )
        scan, table = map(int, out.split())
        assert scan < 128 << 10 and table < 256 << 10, out


class TestLibraryNames:
    """The handlers call the library names bound on the cli module, so a
    wrapper set there from outside (as perfbench/tracer.py sets its spans)
    is what runs."""

    @pytest.mark.parametrize("name,argv", [
        ("max_code_size", ["search", "--n", "5", "--t", "1"]),
        ("enumerate_optimal_codes", ["search", "--n", "5", "--t", "1", "--enumerate"]),
        ("verify_characterization", ["verify", "--n", "5", "--t", "1"]),
        ("enumerate_dominant_pairs", ["enumerate", "--n", "4", "--t", "1"]),
        ("closed_form_generation", ["enumerate", "--n", "4", "--t", "1", "--method", "closed"]),
        ("find_ball_collision", ["check", "FILE", "--t", "1"]),
        ("dominant_codewords", ["check", "FILE", "--t", "1", "--basic"]),
        ("vt_code", ["vt", "--n", "5", "--a", "0"]),
    ])
    def test_a_wrapper_set_on_cli_is_called(
        self, monkeypatch, capsys, tmp_path, name, argv
    ):
        path = tmp_path / "vt5.code"
        path.write_text(vt_code(5, 0).to_text())
        original = getattr(delcodes, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        # the handler binds its names on first use and keeps one already set
        monkeypatch.setattr(cli, name, counting, raising=False)
        code, _, _ = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
        assert code == 0 and calls

    def test_star_import_resolves_every_public_name(self):
        namespace: dict = {}
        exec("from delcodes import *", namespace)
        for name in delcodes.__all__:
            assert namespace[name] is getattr(delcodes, name)

    def test_unknown_names_are_attribute_errors(self):
        for module in (delcodes, cli):
            with pytest.raises(AttributeError):
                module.no_such_name
