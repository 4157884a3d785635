"""CLI behavior: commands, files, exit codes, determinism of outputs."""

import json
import subprocess
import sys

import pytest

from alp.cli import main
from alp.kb import parse_kb
from alp.logic import encode, loss_by_predicate, parse_program, reconstruction_loss
from helpers import FIG1_TEXT, cli_subprocess_env, herbrand_base

SELF_KB = "p(a,b).\np(c,d).\np(e,f).\n"


@pytest.fixture
def family(tmp_path):
    path = tmp_path / "family.facts"
    path.write_text(FIG1_TEXT, encoding="utf-8")
    return path


def learn_args(kb_path, tmp_path, *extra):
    return [
        "learn",
        str(kb_path),
        "--gamma",
        "1",
        "--max-dec-len",
        "1",
        "--seed",
        "4",
        "--out-model",
        str(tmp_path / "model.alp"),
        "--out-latent",
        str(tmp_path / "latent.facts"),
        "--report",
        str(tmp_path / "report.json"),
        *extra,
    ]


class TestLearn:
    def test_learn_writes_all_outputs(self, family, tmp_path, capsys):
        code = main(learn_args(family, tmp_path))
        assert code == 0
        assert (tmp_path / "model.alp").exists()
        assert (tmp_path / "latent.facts").exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema"] == 1
        assert report["loss"]["objective"] == report["solver"]["objective"]
        counters = report["pruning"]
        assert counters["input_count"] == (
            counters["removed_naming"]
            + counters["removed_signature"]
            + counters["removed_corruption"]
            + counters["survivors"]
        )

    def test_self_reconstructible_predicate(self, tmp_path, capsys):
        kb = tmp_path / "self.facts"
        kb.write_text(SELF_KB, encoding="utf-8")
        code = main(learn_args(kb, tmp_path, "--json"))
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["loss"]["objective"] == 0
        assert report["solver"]["selected_encoders"] == 1
        assert report["solver"]["selected_decoders"] == 1

    def test_unreadable_path_is_parse_failure(self, tmp_path):
        code = main(learn_args(tmp_path / "missing.facts", tmp_path))
        assert code == 2
        assert not (tmp_path / "model.alp").exists()

    @pytest.mark.parametrize(
        "option", ["--report", "--out-model", "--out-latent", "--dump-model", "--grid"]
    )
    def test_unwritable_output_fails_before_learning(
        self, family, tmp_path, capsys, monkeypatch, option
    ):
        """An output path in a missing directory is a parse failure found
        before any learning, so no output file is created."""

        def learn(*args, **kwargs):
            raise AssertionError("learn ran")

        monkeypatch.setattr("alp.cli.learn", learn)
        missing = tmp_path / "missing-dir" / "x.out"
        if option == "--grid":  # each cell's tagged report lands in missing-dir
            args = learn_args(family, tmp_path, "--grid", "--report", str(missing))
            missing = missing.with_name("x-enc2-dec2-g0.3.out")
        else:
            args = learn_args(family, tmp_path, option, str(missing))
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"alp: parse failure: [Errno 2] No such file or directory: '{missing}'\n"
        )
        assert sorted(tmp_path.iterdir()) == [family]

    def test_syntax_error_is_parse_failure(self, tmp_path):
        kb = tmp_path / "bad.facts"
        kb.write_text("father(vader,.\n", encoding="utf-8")
        assert main(learn_args(kb, tmp_path)) == 2

    def test_infeasible_exit_code(self, family, tmp_path):
        args = learn_args(family, tmp_path)
        args[args.index("--gamma") + 1] = "0.1"
        assert main(args) == 3

    def test_capacity_exit_code(self, family, tmp_path, capsys, monkeypatch):
        def no_join(*args):
            raise AssertionError("joined before the ceiling check")

        monkeypatch.setattr("alp.logic.FactStore.join", no_join)
        assert main(learn_args(family, tmp_path, "--max-candidates", "3")) == 4
        assert "raise --max-candidates" in capsys.readouterr().err
        # Positive control: under the ceiling the patched step is reached.
        with pytest.raises(AssertionError, match="joined before"):
            main(learn_args(family, tmp_path))

    def test_dump_model_written(self, family, tmp_path):
        dump = tmp_path / "model.cop"
        assert main(learn_args(family, tmp_path, "--dump-model", str(dump))) == 0
        text = dump.read_text()
        assert "constraint linear_le" in text
        assert text.strip().splitlines()[-1].startswith("offset ")

    def test_eval_agrees_with_learn_objective(self, family, tmp_path, capsys):
        main(learn_args(family, tmp_path))
        report = json.loads((tmp_path / "report.json").read_text())
        capsys.readouterr()  # drop the learn summary line
        code = main(
            ["eval", str(tmp_path / "model.alp"), str(family), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["loss"] == report["loss"]["objective"]

    def test_eval_splits_missing_and_false(self, tmp_path, capsys):
        kb = tmp_path / "kb.facts"
        kb.write_text(
            "father(a,b).\nfather(a,c).\nparent(a,b).\nparent(a,c).\n"
            "mother(d,b).\nmother(d,c).\n",
            encoding="utf-8",
        )
        model = tmp_path / "model.alp"
        model.write_text(
            "#encoder\nlatent_1(X,Y) :- father(X,Y).\nlatent_2(X) :- mother(X,Y).\n"
            "#decoder\nfather(X,Y) :- latent_1(X,Y).\nparent(X,Y) :- latent_1(X,Y).\n"
            "mother(X,X) :- latent_2(X).\n",
            encoding="utf-8",
        )
        assert main(["eval", str(model), str(kb)]) == 0
        assert capsys.readouterr().out == (
            "loss 3 (missing 2, false 1)\n"
            "  father/2: missing 0, false 0\n"
            "  mother/2: missing 2, false 1\n"
            "  parent/2: missing 0, false 0\n"
        )

    def test_eval_counts_arity_zero_facts_missing(self, tmp_path, capsys):
        """No decoder reconstructs ``rainy.``: learn counts it missing and
        so does eval, while encode still rejects it as unknown."""
        kb = tmp_path / "kb.facts"
        kb.write_text(
            "father(vader,luke).\nfather(vader,leia).\n"
            "mother(padme,luke).\nmother(padme,leia).\nrainy.\n",
            encoding="utf-8",
        )
        args = learn_args(kb, tmp_path, "--json")
        args[args.index("--gamma") + 1] = "2"
        assert main(args) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["loss"] == {"objective": 1, "missing": 1, "false": 0}
        assert "rainy/0" in report["warnings"][0]
        model = str(tmp_path / "model.alp")
        assert "rainy" not in (tmp_path / "model.alp").read_text()
        assert main(["eval", model, str(kb), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["loss"] == report["loss"]["objective"]
        assert payload["missing"] == 1
        assert payload["per_predicate"]["rainy/0"] == {"missing": 1, "false": 0}
        assert main(["encode", model, str(kb)]) == 5


class TestEncodeDecode:
    def test_round_trip_reconstruction(self, family, tmp_path, capsys):
        main(learn_args(family, tmp_path))
        model = tmp_path / "model.alp"
        latents = tmp_path / "enc.facts"
        assert main(["encode", str(model), str(family), "--out", str(latents)]) == 0
        assert latents.read_text() == (tmp_path / "latent.facts").read_text()
        recon = tmp_path / "recon.facts"
        assert main(["decode", str(model), str(latents), "--out", str(recon)]) == 0
        assert recon.exists()

    def test_unused_background_predicate_is_dropped(self, tmp_path, capsys):
        """Background facts of a predicate no chosen encoder uses cannot
        change a latent fact: eval and encode of the training KB agree with
        learn instead of failing on the vocabulary."""
        kb = tmp_path / "background.facts"
        kb.write_text(
            "#background male/1\n"
            "father(vader,luke).\nfather(vader,leia).\n"
            "mother(padme,luke).\nmother(padme,leia).\n"
            "parent(vader,luke).\nparent(vader,leia).\n"
            "parent(padme,luke).\nparent(padme,leia).\n"
            "male(vader).\nmale(luke).\n",
            encoding="utf-8",
        )
        assert main(learn_args(kb, tmp_path)) == 0
        model = tmp_path / "model.alp"
        assert "male" not in model.read_text()
        report = json.loads((tmp_path / "report.json").read_text())
        capsys.readouterr()  # drop the learn summary line
        assert main(["eval", str(model), str(kb), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["loss"] == report["loss"]["objective"]
        latents = tmp_path / "enc.facts"
        assert main(["encode", str(model), str(kb), "--out", str(latents)]) == 0
        assert latents.read_bytes() == (tmp_path / "latent.facts").read_bytes()

    def test_lossless_round_trip_is_byte_identical(self, tmp_path, capsys):
        kb = tmp_path / "self.facts"
        kb.write_text(SELF_KB, encoding="utf-8")
        main(learn_args(kb, tmp_path))
        model = tmp_path / "model.alp"
        latents = tmp_path / "enc.facts"
        recon = tmp_path / "recon.facts"
        main(["encode", str(model), str(kb), "--out", str(latents)])
        main(["decode", str(model), str(latents), "--out", str(recon)])
        from alp.kb import parse_kb, serialize_kb

        assert recon.read_text() == serialize_kb(parse_kb(SELF_KB))

    def test_empty_kb_encodes_to_empty_latent(self, family, tmp_path, capsys):
        main(learn_args(family, tmp_path))
        empty = tmp_path / "empty.facts"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "latent-empty.facts"
        code = main(
            ["encode", str(tmp_path / "model.alp"), str(empty), "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == ""

    def test_malformed_model_is_parse_failure(self, family, tmp_path):
        model = tmp_path / "bad.alp"
        for text in (
            "#encoder\nnot latent_1(X,Y) :- father(X,Y).\n",
            "#encoder junk\nlatent_1(X,Y) :- father(X,Y).\n",
        ):
            model.write_text(text, encoding="utf-8")
            assert main(["encode", str(model), str(family)]) == 2

    def test_unknown_predicate_is_vocabulary_error(self, family, tmp_path):
        main(learn_args(family, tmp_path))
        alien = tmp_path / "alien.facts"
        alien.write_text("wookie(chewbacca).\n", encoding="utf-8")
        assert main(["encode", str(tmp_path / "model.alp"), str(alien)]) == 5

    def test_unknown_predicates_are_named_once(self, tmp_path, capsys):
        model = tmp_path / "father.alp"
        model.write_text(
            "#encoder\nlatent_1(X,Y) :- father(X,Y).\n"
            "#decoder\nfather(X,Y) :- latent_1(X,Y).\n",
            encoding="utf-8",
        )
        kb = tmp_path / "kb.facts"
        kb.write_text(
            "father(vader,luke).\nmother(padme,luke).\nmother(padme,leia).\n"
            "jedi(luke).\njedi(leia).\n",
            encoding="utf-8",
        )
        assert main(["encode", str(model), str(kb)]) == 5
        assert capsys.readouterr().err == (
            "alp: vocabulary: knowledge base predicates unknown to the model: "
            "['jedi/1', 'mother/2']\n"
        )

    def test_unknown_latent_is_vocabulary_error(self, family, tmp_path):
        main(learn_args(family, tmp_path))
        bogus = tmp_path / "bogus.facts"
        bogus.write_text("latent_999(a,b).\n", encoding="utf-8")
        assert main(["decode", str(tmp_path / "model.alp"), str(bogus)]) == 5

    def test_reconstruction_stays_within_herbrand_base(self, family, tmp_path):
        from alp.kb import parse_kb

        main(learn_args(family, tmp_path))
        latents = tmp_path / "enc.facts"
        recon = tmp_path / "recon.facts"
        main(["encode", str(tmp_path / "model.alp"), str(family), "--out", str(latents)])
        main(["decode", str(tmp_path / "model.alp"), str(latents), "--out", str(recon)])
        original = parse_kb(family.read_text())
        decoded = parse_kb(recon.read_text())
        constants = {a for f in original.facts | original.background for a in f.args}
        hb = herbrand_base(original.vocabulary, constants)
        assert decoded.facts <= hb


JEDI_MODEL = "#encoder\nlatent_1(X) :- male(X).\n#decoder\njedi(X) :- latent_1(X).\n"
JEDI_KB = "male(luke).\nmale(vader).\njedi(luke).\njedi(vader).\n"


class TestDeclarations:
    """A predicate is its name and arity, so a model and a fact file need
    not agree on ``#background`` lines, and ``alp`` and the library give
    the same loss whichever file declares one."""

    @pytest.mark.parametrize(
        "model_background, kb_background, loss",
        [(False, False, 2), (True, False, 2), (False, True, 0), (True, True, 0)],
        ids=["neither", "model", "kb", "both"],
    )
    def test_library_and_cli_agree(
        self, tmp_path, capsys, model_background, kb_background, loss
    ):
        """The KB's male/1 facts are encoded whichever file declares male/1
        background; they count as missing (2) unless the KB declares it."""
        model_text = "#background male/1\n" * model_background + JEDI_MODEL
        kb_text = "#background male/1\n" * kb_background + JEDI_KB
        model, kb = tmp_path / "m.alp", tmp_path / "kb.facts"
        model.write_text(model_text, encoding="utf-8")
        kb.write_text(kb_text, encoding="utf-8")
        assert main(["eval", str(model), str(kb), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        alp, parsed = parse_program(model_text), parse_kb(kb_text)
        tally = loss_by_predicate(alp, parsed)
        assert payload["loss"] == reconstruction_loss(alp, parsed) == loss
        assert payload["per_predicate"] == {
            str(p): {"missing": m, "false": f} for p, (m, f) in tally.items()
        }
        assert main(["encode", str(model), str(kb)]) == 0
        latent = "#pred latent_1/1\nlatent_1(luke).\nlatent_1(vader).\n"
        assert capsys.readouterr().out == latent
        assert {str(f) for f in encode(alp, parsed)} == {"latent_1(luke)", "latent_1(vader)"}

    def test_kb_background_for_a_decoded_predicate(self, tmp_path, capsys):
        """Outputs recorded before fact files were read as they are: the
        KB's background male/1 facts feed the encoder, and the decoded ones
        count as false."""
        model = tmp_path / "m.alp"
        model.write_text(
            "#encoder\nlatent_1(X) :- male(X).\nlatent_2(X,Y) :- father(X,Y).\n"
            "#decoder\nmale(X) :- latent_1(X).\nfather(X,Y) :- latent_2(X,Y).\n",
            encoding="utf-8",
        )
        kb = tmp_path / "kb.facts"
        kb.write_text(
            "#background male/1\nmale(luke).\nmale(vader).\n"
            "father(vader,luke).\nfather(vader,leia).\n",
            encoding="utf-8",
        )
        assert main(["encode", str(model), str(kb)]) == 0
        assert capsys.readouterr().out == (
            "#pred latent_1/1\n#pred latent_2/2\nlatent_1(luke).\nlatent_1(vader).\n"
            "latent_2(vader,leia).\nlatent_2(vader,luke).\n"
        )
        assert main(["eval", str(model), str(kb)]) == 0
        assert capsys.readouterr().out == (
            "loss 2 (missing 0, false 2)\n"
            "  father/2: missing 0, false 0\n  male/1: missing 0, false 2\n"
        )
        latent = tmp_path / "latent.facts"
        latent.write_text(
            "#pred latent_1/1\n#pred latent_2/2\n#pred latent_9/3\n"
            "latent_1(luke).\nlatent_2(vader,leia).\n",
            encoding="utf-8",
        )
        assert main(["decode", str(model), str(latent)]) == 0
        assert capsys.readouterr().out == (
            "#pred father/2\n#pred male/1\nfather(vader,leia).\nmale(luke).\n"
        )

    @pytest.mark.parametrize(
        "program, message",
        [
            (
                "#encoder\nlatent_1(X) :- p(X).\nlatent_2(X) :- latent_1(X).\n"
                "#decoder\np(X) :- latent_2(X).\n",
                "encoder body uses latent latent_1/1",
            ),
            (
                "#encoder\nlatent_1(X) :- p(X).\nlatent_2(X) :- p(X).\n"
                "#decoder\np(X) :- latent_1(X).\nlatent_2(X) :- latent_1(X).\n",
                "decoder head latent_2/1 is not an input",
            ),
            (
                "#encoder\nlatent_1(X) :- p(X).\n#decoder\np(X) :- latent_1(X,X).\n",
                "decoder body uses non-latent latent_1/2",
            ),
        ],
        ids=["encoder-body", "decoder-head", "decoder-body-other-arity"],
    )
    def test_misplaced_latent_is_parse_failure(self, tmp_path, capsys, program, message):
        """A latent read by the encoder or written by the decoder, or one no
        encoder head defines at the decoder's arity, was once read as an
        empty predicate, and eval exited 0 with loss 2."""
        model, kb = tmp_path / "m.alp", tmp_path / "p.facts"
        model.write_text(program, encoding="utf-8")
        kb.write_text("p(a).\np(b).\n", encoding="utf-8")
        for command in ("eval", "encode"):
            assert main([command, str(model), str(kb)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"alp: parse failure: {message}")

    def test_latent_name_at_another_arity_is_an_input(self, tmp_path, capsys):
        """``latent_1/2`` beside the latent ``latent_1/1`` is an input
        predicate; the outputs are the bytes recorded before origins left
        predicate identity."""
        model, kb = tmp_path / "m.alp", tmp_path / "kb.facts"
        model.write_text(
            "#encoder\nlatent_1(X) :- latent_1(X,Y).\n"
            "#decoder\np(X) :- latent_1(X).\nlatent_1(X,Y) :- latent_1(X),latent_1(Y).\n",
            encoding="utf-8",
        )
        kb.write_text("latent_1(a,b).\np(a).\np(c).\n", encoding="utf-8")
        assert main(["eval", str(model), str(kb)]) == 0
        assert capsys.readouterr().out == (
            "loss 3 (missing 2, false 1)\n"
            "  latent_1/2: missing 1, false 1\n"
            "  p/1: missing 1, false 0\n"
        )
        assert main(["encode", str(model), str(kb)]) == 0
        assert capsys.readouterr().out == "#pred latent_1/1\nlatent_1(a).\n"


class TestEnumerate:
    def test_pool_and_tsv_sidecar(self, family, tmp_path, capsys):
        pool = tmp_path / "pool.txt"
        tsv = tmp_path / "pool.tsv"
        code = main(
            [
                "enumerate",
                str(family),
                "--max-dec-len",
                "1",
                "--out",
                str(pool),
                "--tsv",
                str(tsv),
            ]
        )
        assert code == 0
        text = pool.read_text()
        assert "#encoder" in text and "#decoder" in text
        rows = tsv.read_text().splitlines()
        assert rows[0] == "id\tkind\tweight\tconsequences"
        kinds = {r.split("\t")[1] for r in rows[1:]}
        assert kinds == {"encoder", "decoder"}


class TestOptionsAndTrace:
    def test_body_length_range_enforced(self, family, tmp_path):
        args = learn_args(family, tmp_path)
        args[args.index("--max-dec-len") + 1] = "9"
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2

    def test_bad_gamma_is_usage_error(self, family, tmp_path):
        args = learn_args(family, tmp_path)
        args[args.index("--gamma") + 1] = "-1"
        assert main(args) == 2

    @pytest.mark.parametrize("seconds", ["nan", "inf", "-5"])
    def test_bad_time_limit_is_usage_error(self, family, tmp_path, capsys, seconds):
        assert main(learn_args(family, tmp_path, "--time-limit", seconds)) == 2
        assert "time_limit must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("level", ["trace", "debug"])
    def test_trace_stream_emits_tsv(self, family, tmp_path, capsys, monkeypatch, level):
        monkeypatch.setenv("ALP_LOG", level)
        assert main(learn_args(family, tmp_path)) == 0
        err_lines = [
            l for l in capsys.readouterr().err.splitlines() if "\t" in l
        ]
        assert err_lines
        first = err_lines[0].split("\t")
        assert len(first) == 5  # iteration, objective, ms, |ec|, |dc|
        int(first[0]), int(first[1]), float(first[2])


class TestGrid:
    def test_grid_emits_one_report_per_cell(self, tmp_path, capsys):
        kb = tmp_path / "self.facts"
        kb.write_text(SELF_KB, encoding="utf-8")
        args = learn_args(kb, tmp_path, "--grid", "--iterations", "30")
        assert main(args) == 0
        reports = sorted(tmp_path.glob("report-enc*-dec*-g*.json"))
        assert len(reports) == 12
        statuses = {
            json.loads(p.read_text()).get("status") for p in reports
        }
        assert statuses <= {"ok", "infeasible", "capacity"}

    def test_grid_rejects_dump_model(self, tmp_path, capsys):
        kb = tmp_path / "self.facts"
        kb.write_text(SELF_KB, encoding="utf-8")
        dump = tmp_path / "model.cop"
        args = learn_args(kb, tmp_path, "--grid", "--dump-model", str(dump))
        assert main(args) == 2
        assert "--dump-model cannot be used with --grid" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [kb]


class TestDeterminism:
    def test_two_processes_byte_identical(self, family, tmp_path):
        outs = []
        for run, hashseed in (("one", "1"), ("two", "31337")):
            out_dir = tmp_path / run
            out_dir.mkdir()
            cmd = [
                sys.executable,
                "-m",
                "alp.cli",
                "learn",
                str(family),
                "--gamma",
                "1",
                "--max-dec-len",
                "1",
                "--seed",
                "9",
                "--iterations",
                "40",
                "--out-model",
                str(out_dir / "model.alp"),
                "--out-latent",
                str(out_dir / "latent.facts"),
                "--report",
                str(out_dir / "report.json"),
            ]
            proc = subprocess.run(
                cmd, capture_output=True, env=cli_subprocess_env(hashseed)
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(
                (
                    (out_dir / "model.alp").read_bytes(),
                    (out_dir / "latent.facts").read_bytes(),
                )
            )
        assert outs[0] == outs[1]
