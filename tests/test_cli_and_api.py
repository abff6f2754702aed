"""Tests for the command-line front-end and the public package API."""

import struct

import pytest

import repro
from repro.litmus.library import by_name
from repro.tools.cli import main


@pytest.fixture()
def mp_litmus(tmp_path):
    path = tmp_path / "MP.litmus"
    path.write_text(by_name("MP").source)
    return str(path)


class TestCli:
    def test_run_command(self, mp_litmus, capsys):
        assert main(["run", mp_litmus]) == 0
        output = capsys.readouterr().out
        assert "Test MP: Allowed" in output
        assert "witnessed" in output

    def test_run_prints_outcomes(self, mp_litmus, capsys):
        main(["run", mp_litmus])
        output = capsys.readouterr().out
        assert "1:r4=" in output

    def test_elf_command(self, tmp_path, capsys):
        from repro.elf.writer import make_executable
        from repro.isa.assembler import Assembler
        from repro.isa.model import default_model

        assembler = Assembler(default_model())
        words, _ = assembler.assemble_program(
            ["li r3,5", "addi r3,r3,2"], 0x10000
        )
        blob = make_executable(0x10000, words, 0x20000, b"", {})
        path = tmp_path / "prog.elf"
        path.write_bytes(blob)
        assert main(["elf", str(path)]) == 0
        output = capsys.readouterr().out
        assert "r3 = 0x7" in output

    def test_interactive_quits_cleanly(self, mp_litmus, monkeypatch, capsys):
        inputs = iter(["0", "q"])
        monkeypatch.setattr("builtins.input", lambda *a: next(inputs))
        assert main(["interactive", mp_litmus]) == 0
        output = capsys.readouterr().out
        assert "Enabled transitions" in output
        assert "Storage subsystem state" in output

    def test_gen_lifted_caps_flags(self, capsys):
        assert main(
            ["gen", "--seed", "3", "--size", "5",
             "--max-threads", "6", "--max-run", "4"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out.count("POWER ") == 5
        assert "generated 5 distinct tests" in captured.err

    def test_gen_check_exits_nonzero_on_violation(self, monkeypatch, capsys):
        # The exit-code contract: any oracle violation fails the run, so
        # CI gen smoke jobs cannot scroll past a soundness break.
        from repro.testgen import concurrent

        def fake_check_suite(tests, search=None, jobs=None, engine=None):
            checks = [
                concurrent.OracleCheck(
                    name=test.name,
                    family=test.family,
                    edge_names=test.edge_names,
                    expected="Forbidden",
                    status="Allowed",
                    ok=False,
                )
                for test in tests
            ]
            return concurrent.OracleReport(
                checks=checks, jobs=1, wall_seconds=0.0
            )

        monkeypatch.setattr(concurrent, "check_suite", fake_check_suite)
        assert main(["gen", "--seed", "0", "--size", "2", "--check"]) == 1
        assert "VIOLATION" in capsys.readouterr().err

    def test_gen_check_clean_suite_exits_zero(self, capsys):
        assert main(
            ["gen", "--seed", "0", "--size", "2", "--check", "--jobs", "1"]
        ) == 0
        err = capsys.readouterr().err
        assert "0 violation(s)" in err

    @pytest.mark.parametrize("verb", ["run", "litmus", "interactive"])
    @pytest.mark.parametrize("content", [None, "garbage\n"],
                             ids=["missing", "unparseable"])
    def test_bad_litmus_file_is_one_line_error(self, tmp_path, capsys,
                                               verb, content):
        path = tmp_path / "bad.litmus"
        if content is not None:
            path.write_text(content)
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ppcmem2: error: ")
        assert str(path) in err

    @pytest.mark.parametrize("flag", ["--max-threads", "--max-run", "--jobs"])
    def test_gen_non_positive_counts_refused(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--size", "2", "--check", flag, "0"])
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be an integer of at least 1" in (
            capsys.readouterr().err
        )


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_quickstart_surface(self):
        test = repro.parse_litmus(by_name("MP+syncs").source)
        result = repro.run_litmus(test)
        assert result.status == "Forbidden"

    def test_default_model_is_shared(self):
        assert repro.default_model() is repro.default_model()

    def test_all_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_corpus_export(self):
        assert len(repro.litmus_corpus()) >= 40

    def test_sequential_machine_export(self):
        machine = repro.SequentialMachine()
        machine.set_gpr(1, 7)
        assert machine.gpr(1).to_int() == 7
