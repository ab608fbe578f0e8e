"""Bench driver and command line coverage.

Kept small: a few hundred queries over a few hundred elements per run,
so the whole module stays well under a second.
"""

import csv
import dataclasses
import io
import json
import os

import pytest

from coroweave import cli, codegen, to_builder_source
from coroweave.bench import (
    CSV_COLUMNS,
    POLICIES,
    BenchConfig,
    ConfigError,
    EquivalenceError,
    rows_to_csv,
    rows_to_json,
    run_bench,
    selftest,
)
from coroweave.cli import main
from coroweave.kernels import KERNELS
from coroweave.kernels.defs import binary_search_def
from defgen import declaration_chain

SMALL = dict(queries=240, elements=192, width=6)


class TestBenchConfig:
    def test_defaults_are_valid(self):
        BenchConfig()

    def test_unknown_kernel(self):
        with pytest.raises(ConfigError, match="unknown kernel 'zz'"):
            BenchConfig(kernel="zz")

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="unknown policies: warp"):
            BenchConfig(policies=("simplest", "warp"))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(width=0),
            dict(queries=0),
            dict(elements=0),
            dict(limit=-3),
        ],
    )
    def test_counts_must_be_positive(self, bad):
        with pytest.raises(ConfigError):
            BenchConfig(**bad)

    @pytest.mark.parametrize("kernel", ["bt", "bs"])
    def test_unknown_select(self, kernel):
        with pytest.raises(ConfigError, match="unknown select 'bogus'; choose from arith, ternary"):
            BenchConfig(kernel=kernel, policies=("simplest",), select="bogus", queries=50,
                        elements=64)

    @pytest.mark.parametrize("policy", ["static", "hybrid"])
    def test_branchy_kernel_rejects_lockstep_policies(self, policy):
        emit = {"static": codegen.emit_static, "hybrid": codegen.emit_hybrid}[policy]
        with pytest.raises(codegen.CodegenError) as refusal:
            emit(KERNELS["bt"].build_def(), SMALL["width"])
        cfg = BenchConfig(kernel="bt", policies=(policy,), **SMALL)
        with pytest.raises(ConfigError) as err:
            run_bench(cfg)
        assert str(err.value) == str(refusal.value)

    def test_kernel_all_filters_lockstep_instead_of_failing(self):
        cfg = BenchConfig(kernel="all", policies=POLICIES, **SMALL)
        rows = run_bench(cfg).rows
        lockstep = {(r.kernel, r.policy) for r in rows if r.policy in ("static", "hybrid")}
        assert lockstep == {("ht", "static"), ("ht", "hybrid")}


class TestRunBench:
    def test_row_shape(self):
        rows = run_bench(BenchConfig(kernel="ht", policies=POLICIES, **SMALL)).rows
        assert [r.policy for r in rows] == ["-", *POLICIES]
        base = rows[0]
        assert base.variant == "sequential" and base.width == 1
        for r in rows[1:]:
            assert r.variant == "interleaved" and r.width == SMALL["width"]
        for r in rows:
            assert r.kernel == "ht"
            assert r.queries == SMALL["queries"]
            assert r.total_ns > 0 and r.ops_per_sec > 0

    def test_policies_agree_on_checksum(self):
        rows = run_bench(BenchConfig(kernel="all", policies=POLICIES, **SMALL)).rows
        for name in KERNELS:
            sums = {r.checksum for r in rows if r.kernel == name}
            assert len(sums) == 1, name

    def test_policies_share_one_lane_per_definition(self, monkeypatch):
        lanes = []

        def counted(source, filename, mode):
            if "\ndef _lane(" in source:
                lanes.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(codegen, "compile", counted, raising=False)
        run_bench(BenchConfig(kernel="ht", policies=POLICIES, **SMALL))
        # simplest, push_pull and static share ht's definition; hybrid has its own
        assert len(lanes) == 2

    def test_checksum_tracks_seed(self):
        def checksum(seed):
            cfg = BenchConfig(kernel="bs", policies=(), seed=seed, **SMALL)
            return run_bench(cfg).rows[0].checksum

        assert checksum(1) == checksum(1)
        assert checksum(1) != checksum(2)

    def test_empty_policies_is_baseline_only(self):
        rows = run_bench(BenchConfig(kernel="sl", policies=(), **SMALL)).rows
        assert [(r.variant, r.policy) for r in rows] == [("sequential", "-")]

    def test_phase_timings_are_reported(self):
        report = run_bench(BenchConfig(kernel="sli", policies=("simplest",), **SMALL))
        assert report.phases_ns["sli:build"] >= 0
        assert "sli:sequential:warmup" in report.phases_ns
        assert "sli:simplest:warmup" in report.phases_ns

    def test_limit_reaches_sli(self):
        def checksums(limit):
            cfg = BenchConfig(kernel="sli", policies=("simplest", "push_pull"), limit=limit,
                              **SMALL)
            return {r.checksum for r in run_bench(cfg).rows}

        one, eight = checksums(1), checksums(8)
        # every row agrees with its sequential row, and the limit changes the answer
        assert len(one) == len(eight) == 1
        assert one != eight

    def test_memory_check_refuses_before_building_a_dataset(self, monkeypatch):
        def no_dataset(n, seed):
            raise AssertionError("dataset built")

        bs = dataclasses.replace(KERNELS["bs"], make_dataset=no_dataset)
        monkeypatch.setitem(KERNELS, "bs", bs)
        # two pages of 4 KiB: less than the 30 KiB that 192 elements and 240 queries need
        monkeypatch.setattr(os, "sysconf", {"SC_AVPHYS_PAGES": 2, "SC_PAGE_SIZE": 4096}.get)
        with pytest.raises(ConfigError, match="192 elements of kernel 'bs' needs roughly 0 MiB,"
                                              " more than the 0 MiB available"):
            run_bench(BenchConfig(kernel="bs", policies=("simplest",), **SMALL))

    @pytest.mark.parametrize("error", [ValueError, OSError])
    def test_memory_check_is_skipped_without_sysconf(self, monkeypatch, error):
        def no_sysconf(name):
            raise error(name)

        monkeypatch.setattr(os, "sysconf", no_sysconf)
        rows = run_bench(BenchConfig(kernel="bs", policies=("simplest",), **SMALL)).rows
        assert [r.policy for r in rows] == ["-", "simplest"]

    def test_select_changes_nothing_observable(self):
        def checksum(select):
            cfg = BenchConfig(kernel="bs", policies=("simplest",), select=select, **SMALL)
            return run_bench(cfg).rows[1].checksum

        assert checksum("arith") == checksum("ternary")

    def test_push_pull_row_runs_run_push_pull(self, monkeypatch):
        import coroweave.schedulers as schedulers

        calls = []
        real = schedulers.run_push_pull

        def counted(*a):
            calls.append(1)
            return real(*a)

        monkeypatch.setattr(schedulers, "run_push_pull", counted)
        run_bench(BenchConfig(kernel="bt", policies=("simplest",), **SMALL))
        assert calls == []
        rows = run_bench(BenchConfig(kernel="bt", policies=("push_pull",), **SMALL)).rows
        # one call for the warm-up slice, one for the timed run
        assert len(calls) == 2
        assert rows[1].checksum == rows[0].checksum

    def test_disagreement_fails_loudly(self, monkeypatch):
        import dataclasses

        liar = dataclasses.replace(
            KERNELS["bs"], name="liar", baseline=lambda a, size, key: 0
        )
        monkeypatch.setitem(KERNELS, "liar", liar)
        cfg = BenchConfig(kernel="liar", policies=("simplest",), **SMALL)
        with pytest.raises(EquivalenceError, match=r"liar/simplest: result \d+ is"):
            run_bench(cfg)


@pytest.fixture(scope="module")
def rows():
    return run_bench(BenchConfig(kernel="ht", policies=POLICIES, **SMALL)).rows


class TestSerialization:
    def test_csv_round_trip(self, rows):
        text = rows_to_csv(rows)
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == list(CSV_COLUMNS)
        assert len(parsed) == 1 + len(rows)
        for row, r in zip(parsed[1:], rows):
            assert row[0] == r.kernel
            assert int(row[8]) == r.checksum
            assert float(row[6]) == pytest.approx(r.ops_per_sec, abs=0.001)

    def test_json_round_trip(self, rows):
        back = json.loads(rows_to_json(rows))
        assert len(back) == len(rows)
        for d, r in zip(back, rows):
            assert tuple(d) == CSV_COLUMNS
            assert d["checksum"] == r.checksum


class TestSelftest:
    def test_everything_agrees(self):
        assert selftest() == []


class TestCli:
    def test_bench_csv_to_stdout(self, capsys):
        rc = main(
            ["bench", "--kernel", "ht", "--policy", "all", "--queries", "240",
             "--elements", "192", "--width", "6"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        head, *rows = out.strip().splitlines()
        assert head == ",".join(CSV_COLUMNS)
        assert len(rows) == 5

    def test_bench_json_to_file(self, tmp_path, capsys):
        dest = tmp_path / "rows.json"
        rc = main(
            ["bench", "--kernel", "bt", "--queries", "240", "--elements", "192",
             "--format", "json", "-o", str(dest)]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        back = json.loads(dest.read_text())
        assert [r["policy"] for r in back] == ["-", "simplest"]

    def test_bench_verbose_prints_ratios(self, capsys):
        rc = main(
            ["bench", "--kernel", "bs", "--queries", "240", "--elements", "192",
             "-v"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "# bs:build" in err
        assert "x vs sequential" in err

    def test_bench_policy_all_runs_what_one_kernel_admits(self, capsys):
        rc = main(
            ["bench", "--kernel", "bs", "--policy", "all", "--queries", "240",
             "--elements", "192", "--width", "6"]
        )
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["policy"] for r in rows] == ["-", "simplest", "push_pull"]

    def test_bench_rejects_lockstep_on_branchy_kernel(self, capsys):
        rc = main(["bench", "--kernel", "bt", "--policy", "static"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("coroweave: bst_find: stage 0 reaches 1, 2 instead of state 1")

    @pytest.mark.parametrize("emit", ["static", "hybrid"])
    @pytest.mark.parametrize("kernel", ["bs", "bt", "sl", "sli", "ht"])
    def test_bench_and_gen_refuse_in_the_same_words(self, kernel, emit, capsys):
        size = ["--queries", "50", "--elements", "64"]
        bench_rc = main(["bench", "--kernel", kernel, "--policy", emit, *size])
        bench_err = capsys.readouterr().err
        gen_rc = main(["gen", "--kernel", kernel, "--emit", emit])
        gen_err = capsys.readouterr().err
        if kernel == "ht":
            assert (bench_rc, bench_err, gen_rc, gen_err) == (0, "", 0, "")
        else:
            assert bench_rc == gen_rc == 2
            assert bench_err == gen_err
            assert bench_err.startswith("coroweave: ") and bench_err.count("\n") == 1

    def test_bench_refuses_before_building_a_dataset(self, monkeypatch):
        def no_dataset(n, seed):
            raise AssertionError("dataset built")

        bt = dataclasses.replace(KERNELS["bt"], make_dataset=no_dataset)
        monkeypatch.setitem(KERNELS, "bt", bt)
        with pytest.raises(ConfigError, match="no statically scheduled stage prefix"):
            run_bench(BenchConfig(kernel="bt", policies=("simplest", "hybrid"), **SMALL))

    def test_bench_unknown_kernel(self, capsys):
        rc = main(["bench", "--kernel", "nope"])
        assert rc == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["bench", "--size", "4k"])
        assert e.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert capsys.readouterr().out.startswith("coroweave ")

    def test_gen_fsm_dump(self, capsys):
        rc = main(["gen", "--kernel", "ht", "--emit", "fsm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == (
            "state 0: [2 stmts] -> 1\n"
            "state 1: [1 stmts] -> 2\n"
            "state 2: [3 stmts] -> 3\n"
        )

    def test_gen_dynamic_source(self, capsys):
        rc = main(["gen", "--kernel", "bt"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "def make_bst_find" in out
        assert "Automatically generated" in out

    def test_gen_static_width(self, capsys):
        rc = main(["gen", "--kernel", "ht", "--emit", "hybrid", "--width", "4"])
        assert rc == 0
        assert "make_hybrid_hashtable_find_4" in capsys.readouterr().out

    def test_gen_refuses_static_for_branchy_kernel(self, capsys):
        rc = main(["gen", "--kernel", "bt", "--emit", "static"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("coroweave: ")
        assert "data-dependent" in err

    def test_gen_hybrid_needs_a_static_prefix(self, capsys):
        rc = main(["gen", "--kernel", "bs", "--emit", "hybrid"])
        assert rc == 2
        assert "no statically scheduled stage prefix" in capsys.readouterr().err

    def test_gen_from_def_file(self, tmp_path, capsys):
        src = tmp_path / "lookup.py"
        src.write_text(to_builder_source(binary_search_def()))
        rc = main(["gen", "--def", str(src), "--emit", "routine"])
        assert rc == 0
        assert "def binary_search(" in capsys.readouterr().out

    def test_gen_missing_def_file(self, capsys):
        rc = main(["gen", "--def", "/no/such/file.py"])
        assert rc == 2
        assert "coroweave:" in capsys.readouterr().err

    def test_gen_refuses_text_that_is_not_builder_calls(self, tmp_path, capsys):
        for name, text, want in [
            ("syntax.py", "foo(\n", "coroweave: builder source 1:4: "),
            ("name.py", "nosuch()\n", "coroweave: builder source: name 'nosuch'"),
            ("method.py", "coroutine('f').nosuch()\n", "coroweave: builder source: "),
            ("arity.py", "coroutine()\n", "coroweave: builder source: "),
            ("hint.py", "coroutine('k').body(yield_('bogus'))\n",
             "coroweave: yield hint 'bogus' is not one of 'default', 'static', 'dynamic'"),
            ("binop.py", "coroutine('k' + 'x').body()", "coroweave: builder source 1:11: "),
            ("dunder.py", "coroutine(().__class__.__name__).body()",
             "coroweave: builder source 1:11: "),
            ("subscript.py", "[coroutine('k')][0].body()", "coroweave: builder source 1:1: "),
            ("attribute.py", "coroutine('k')._add.__self__.body()",
             "coroweave: builder source 1:1: "),
            ("starred.py", "coroutine('k').body(*[opaque('x = 1')])",
             "coroweave: builder source 1:21: "),
            ("ifexp.py", "coroutine('k').body() if 1 else 0", "coroweave: builder source 1:1: "),
            # columns count characters, not UTF-8 bytes
            ("utf8.py", "coroutine('\u00e9' 'k').body(x)", "coroweave: builder source 1:25: "),
            ("fmix.py", "coroutine('fmix64').body()", "coroweave: coroutine name 'fmix64' is reserved"),
            ("builtin.py", "coroutine('abs').body()", "coroweave: coroutine name 'abs' is reserved"),
            # ast construction runs out of depth on a long method chain
            ("deep.py", to_builder_source(declaration_chain(2000)), "coroweave: builder source: "),
        ]:
            src = tmp_path / name
            src.write_text(text)
            rc = main(["gen", "--def", str(src)])
            err = capsys.readouterr().err.splitlines()
            assert rc == 2, name
            assert len(err) == 1 and err[0].startswith(want), err

    def test_gen_reports_diagnostics(self, tmp_path, capsys):
        src = tmp_path / "broken.py"
        src.write_text(
            "coroutine('broken').body(\n"
            "    break_(),\n"
            "    assign('ghost', '1'),\n"
            ")\n"
        )
        rc = main(["gen", "--def", str(src)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "R1: body[0]: break outside any loop or switch"
        assert err[1] == "R5: body[1]: destination 'ghost' is not a declared variable or arg"

    def test_gen_warns_of_dropped_code(self, tmp_path, capsys):
        src = tmp_path / "dead.py"
        src.write_text(
            "coroutine('dead').variable('int', 't').body(\n"
            "    return_(),\n"
            "    assign('t', '1'),\n"
            ")\n"
        )
        for emit in ("routine", "dynamic", "fsm"):
            rc = main(["gen", "--def", str(src), "--emit", emit])
            assert rc == 0
            out, err = capsys.readouterr()
            assert err == "coroweave: warning: unreachable code dropped at body[1]\n"
            assert out
        rc = main(["gen", "--kernel", "bt"])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_gen_output_file(self, tmp_path):
        dest = tmp_path / "unit.py"
        rc = main(["gen", "--kernel", "sl", "-o", str(dest)])
        assert rc == 0
        assert "make_skiplist_find" in dest.read_text()

    def one_error_line(self, capsys, argv, want):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(want), err

    def test_gen_refuses_a_def_file_that_is_not_utf8(self, tmp_path, capsys):
        src = tmp_path / "latin1.py"
        src.write_bytes("coroutine('k').body(opaque('x = \"\u00e9\"'))".encode("latin-1"))
        self.one_error_line(capsys, ["gen", "--def", str(src)],
                            f"coroweave: {src} is not UTF-8: 'utf-8' codec can't decode")

    def test_gen_refuses_a_nul_byte_without_a_position(self, tmp_path, capsys):
        src = tmp_path / "nul.py"
        src.write_bytes(b"coroutine('k')\x00.body()")
        self.one_error_line(capsys, ["gen", "--def", str(src)],
                            "coroweave: builder source: source code string cannot contain null bytes")

    @pytest.mark.parametrize("argv", [
        ["gen", "--kernel", "bt"],
        ["bench", "--kernel", "ht", "--policy", "none", "--queries", "10", "--elements", "16"],
    ], ids=["gen", "bench"])
    def test_unwritable_output_is_one_error_line(self, tmp_path, capsys, monkeypatch, argv):
        def no_run(cfg):
            raise AssertionError("the bench ran before its output was opened")

        # the path is refused before any run
        monkeypatch.setattr(cli, "run_bench", no_run)
        dest = tmp_path / "missing" / "out.txt"
        self.one_error_line(capsys, argv + ["-o", str(dest)],
                            "coroweave: [Errno 2] No such file or directory")
        assert not dest.parent.exists()

    def test_bench_output_survives_a_failed_run(self, tmp_path, capsys, monkeypatch):
        def failing_run(cfg):
            raise EquivalenceError("ht/simplest: results differ")

        monkeypatch.setattr(cli, "run_bench", failing_run)
        dest = tmp_path / "out.csv"
        dest.write_text("earlier rows\n")
        rc = main(["bench", "--kernel", "ht", "--policy", "none", "--queries", "10",
                   "--elements", "16", "-o", str(dest)])
        assert rc == 1
        assert "equivalence failure" in capsys.readouterr().err
        assert dest.read_text() == "earlier rows\n"

    @pytest.mark.parametrize("argv,want", [
        ([], BenchConfig()),
        (["--select", "ternary", "--limit", "3", "--seed", "9", "--policy", "all"],
         BenchConfig(select="ternary", limit=3, seed=9, policies=POLICIES)),
        (["--kernel", "bt", "--policy", "push_pull", "--width", "5", "--queries", "7",
          "--elements", "11"],
         BenchConfig(kernel="bt", policies=("push_pull",), width=5, queries=7, elements=11)),
        (["--policy", "none"], BenchConfig(policies=())),
    ], ids=["defaults", "select-limit-seed-all", "kernel-width-queries-elements", "none"])
    def test_bench_flags_land_in_their_config_fields(self, monkeypatch, capsys, argv, want):
        from coroweave.bench import BenchReport

        seen = []
        monkeypatch.setattr(cli, "run_bench", lambda cfg: seen.append(cfg) or BenchReport())
        assert main(["bench", *argv]) == 0
        assert seen == [want]

    def test_selftest_command(self, capsys):
        rc = main(["selftest"])
        assert rc == 0
        assert "selftest ok" in capsys.readouterr().out
