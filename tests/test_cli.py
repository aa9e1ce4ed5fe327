"""Command-line plumbing: exit codes, file outputs, config overrides."""
import os

import pytest

import streamformer.cli as cli
from streamformer.errors import ContractError, ResourceError
from streamformer.logic import Dataset
from streamformer.model import load_model

from helpers import ablation_code

TINY_CFG = ("d_model=16\nheads=2\nffn_dim=32\n"
            "enc_layers=1\ndec_layers=1\n"
            "steps=25\nbatch_size=4\nlog_every=100\n")


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return cli.main(list(argv))


def test_gen_data_is_byte_deterministic(workdir):
    args = ("gen-data", "--task", "prop", "--aps", "3", "--n", "25",
            "--min-size", "3", "--max-size", "7")
    assert run("--seed", "1", "--out", "a.tsv", *args) == 0
    assert run("--seed", "1", "--out", "b.tsv", *args) == 0
    assert (workdir / "a.tsv").read_bytes() == (workdir / "b.tsv").read_bytes()


def test_gen_data_default_output_name(workdir):
    assert run("gen-data", "--task", "copying", "--aps", "4",
               "--n", "5") == 0
    assert (workdir / "copying.tsv").exists()


def test_gen_data_long_formulas_over_every_symbol(workdir):
    # the assignment search skips formulas of more than 20 symbols and
    # stops after its budget of candidates, so this call finishes
    assert run("gen-data", "--task", "prop", "--aps", "26", "--n", "1",
               "--min-size", "120", "--max-size", "120") == 0
    assert len(Dataset.load(workdir / "prop.tsv")) == 1


def test_train_eval_topn_alpha_cov_pipeline(workdir, capsys):
    (workdir / "tiny.cfg").write_text(TINY_CFG)
    assert run("--out", "d.tsv", "gen-data", "--task", "prop", "--aps", "3",
               "--n", "20", "--min-size", "3", "--max-size", "6") == 0
    assert run("--config", "tiny.cfg", "--out", "m.ckpt", "train",
               "--data", "d.tsv") == 0
    model = load_model("m.ckpt")
    assert model.cfg.d_model == 16

    assert run("--out", "r.txt", "eval", "--model", "m.ckpt",
               "--data", "d.tsv", "--max-len", "10") == 0
    report = (workdir / "r.txt").read_text()
    assert report.splitlines()[0] == "n 20"
    assert "correct " in report and "exact " in report

    capsys.readouterr()
    assert run("topn", "--model", "m.ckpt", "--data", "d.tsv",
               "--n", "2", "--max-len", "8") == 0
    assert capsys.readouterr().out.startswith("top2 ")

    assert run("--out", "cov.txt", "alpha-cov", "--model", "m.ckpt",
               "--data", "d.tsv", "--max-len", "8") == 0
    cov = dict(line.split(" ", 1)
               for line in (workdir / "cov.txt").read_text().splitlines())
    assert cov["ap_count"] == "3"
    assert float(cov["mean"]) == 1.0


def test_train_flag_overrides_config(workdir):
    (workdir / "tiny.cfg").write_text(TINY_CFG)
    assert run("--out", "d.tsv", "gen-data", "--task", "copying",
               "--aps", "3", "--n", "8", "--min-size", "3",
               "--max-size", "5") == 0
    assert run("--config", "tiny.cfg", "--out", "m.ckpt", "train",
               "--data", "d.tsv", "--steps", "3") == 0
    # 3 steps, not 25: the run is near-instant and still checkpoints
    assert (workdir / "m.ckpt").exists()
    # no step at all still writes the (untrained) model
    assert run("--config", "tiny.cfg", "--out", "z.ckpt", "train",
               "--data", "d.tsv", "--steps", "0") == 0
    assert load_model("z.ckpt").cfg.d_model == 16


def test_heatmap_csv_stability(workdir):
    (workdir / "tiny.cfg").write_text(TINY_CFG)
    assert run("--out", "d.tsv", "gen-data", "--task", "prop", "--aps", "3",
               "--n", "6", "--min-size", "3", "--max-size", "5") == 0
    assert run("--config", "tiny.cfg", "--out", "m.ckpt", "train",
               "--data", "d.tsv", "--steps", "3") == 0
    args = ("heatmap", "--model", "m.ckpt", "--task", "prop",
            "--aps", "2,3", "--lengths", "3,4", "--per-cell", "2")
    assert run("--out", "h1.csv", *args) == 0
    assert run("--out", "h2.csv", *args) == 0
    h1 = (workdir / "h1.csv").read_text()
    assert h1 == (workdir / "h2.csv").read_text()
    assert h1.splitlines()[0] == "ap,len,n,correct,exact"
    assert len(h1.splitlines()) == 5


def test_certify_fresh_models(workdir, capsys):
    (workdir / "tiny.cfg").write_text(TINY_CFG)
    assert run("--config", "tiny.cfg", "--seed", "7", "certify",
               "--trials", "6", "--max-len", "16") == 0
    out = capsys.readouterr().out
    assert "certification PASSED" in out
    assert out.count("trials") == 3


def test_time_subcommand(workdir, capsys):
    (workdir / "tiny.cfg").write_text(TINY_CFG)
    assert run("--config", "tiny.cfg", "time", "--aps", "1,2",
               "--samples", "2", "--length", "8") == 0
    out = capsys.readouterr().out
    assert "1 streams:" in out and "r2 " in out


def test_exit_codes(workdir, monkeypatch, capsys):
    assert run("definitely-not-a-command") == 2
    capsys.readouterr()
    (workdir / "p.tsv").write_text("#task=prop aps=3\n!a\ta0\n")
    assert run("eval", "--model", "missing.ckpt", "--data", "p.tsv") == 2
    (workdir / "bad.cfg").write_text("not_a_real_knob=1\n")
    assert run("--config", "bad.cfg", "certify", "--trials", "1") == 2
    (workdir / "mangled.cfg").write_text("just some words\n")
    assert run("--config", "mangled.cfg", "certify", "--trials", "1") == 2

    def boom(*a, **kw):
        raise ResourceError("synthetic blowup")
    monkeypatch.setattr(cli.ev, "certify_invariance", boom)
    assert run("certify", "--trials", "1") == 3

    def no_memory(*a, **kw):
        raise MemoryError("Unable to allocate 9.31 GiB for an array")
    monkeypatch.setattr(cli.ev, "time_scaling", no_memory)
    capsys.readouterr()
    assert run("time", "--aps", "1") == 3
    assert capsys.readouterr().err == \
        "error: out of memory: Unable to allocate 9.31 GiB for an array\n"


def test_non_finite_checkpoint_exits_2_naming_the_parameter(workdir, capsys):
    from streamformer.logic import task_vocabulary
    from streamformer.model import ModelConfig, Seq2SeqModel, save_model
    m = Seq2SeqModel(ModelConfig(d_model=8, heads=2, ffn_dim=8, enc_layers=1,
                                 dec_layers=1), task_vocabulary("prop", 3))
    name = m.parameters()[3].name
    m.parameters()[3].data.flat[0] = float("nan")
    save_model(m, "nan.ckpt")
    (workdir / "p.tsv").write_text("#task=prop aps=3\n!a\ta0\n")
    assert run("eval", "--model", "nan.ckpt", "--data", "p.tsv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert name in err


def test_alpha_cov_with_one_symbol_sources_in_a_wide_tier(workdir, capsys):
    # prop-7 sources with one symbol have 7 renamings, fewer than a sample
    (workdir / "tiny.cfg").write_text(TINY_CFG)
    assert run("--out", "d.tsv", "gen-data", "--task", "prop", "--aps", "7",
               "--n", "12") == 0
    assert run("--config", "tiny.cfg", "--out", "m.ckpt", "train",
               "--data", "d.tsv", "--steps", "0") == 0
    assert run("--out", "cov.txt", "alpha-cov", "--model", "m.ckpt",
               "--data", "d.tsv", "--max-len", "4") == 0
    lines = (workdir / "cov.txt").read_text().splitlines()
    assert lines[1] == "samples 12" and lines[-1] == "skipped 0"


def test_decode_commands_take_a_huge_length_bound(workdir, monkeypatch,
                                                  capsys):
    # a decode's memory follows the tokens it emits, not --max-len: with
    # every step's logits peaked on </s>, each decoding command ends
    import streamformer.model as M
    from streamformer.logic import task_vocabulary
    from streamformer.streams import EOS_ID
    M.save_model(M.Seq2SeqModel(M.ModelConfig(d_model=8, heads=2, ffn_dim=8,
                                              enc_layers=1, dec_layers=1),
                                task_vocabulary("prop", 3)), "m.ckpt")
    (workdir / "p.tsv").write_text("#task=prop aps=3\n!a\ta0\n")
    step = M.Seq2SeqModel.step_logits

    def ends(self, state, tokens):
        logits = step(self, state, tokens)
        logits[:, EOS_ID] = logits.max() + 10.0
        return logits

    monkeypatch.setattr(M.Seq2SeqModel, "step_logits", ends)
    bound = ("--max-len", str(10 ** 20))
    data = ("--model", "m.ckpt", "--data", "p.tsv")
    for argv in (("eval", *data), ("eval", *data, "--beam", "2"),
                 ("topn", *data, "--n", "2"), ("alpha-cov", *data),
                 ("certify", "--model", "m.ckpt", "--task", "prop",
                  "--trials", "2"),
                 ("certify", "--trials", "3")):
        assert run(*argv, *bound) == 0, argv
    assert "certification PASSED" in capsys.readouterr().out


def fails_with_one_line(capsys, *argv):
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_checkpoint_metadata_not_json_exits_2(workdir, capsys):
    (workdir / "bad.ckpt").write_bytes(b"tensorckpt v1\n{not json\n[]\n")
    fails_with_one_line(capsys, "certify", "--model", "bad.ckpt")


def test_checkpoint_manifest_not_json_exits_2(workdir, capsys):
    (workdir / "bad.ckpt").write_bytes(b"tensorckpt v1\n{}\n[{\n")
    fails_with_one_line(capsys, "certify", "--model", "bad.ckpt")


def test_checkpoint_malformed_manifest_entry_exits_2(workdir, capsys):
    (workdir / "bad.ckpt").write_bytes(
        b'tensorckpt v1\n{}\n[{"name": "w", "shape": [2, "x"]}]\n')
    fails_with_one_line(capsys, "certify", "--model", "bad.ckpt")


def test_checkpoint_claiming_more_bytes_than_it_holds_exits_2(workdir, capsys):
    head = (b'tensorckpt v1\n{}\n'
            b'[{"name": "w", "shape": [100000, 100000, 100]}]\n')
    (workdir / "big.ckpt").write_bytes(head + b"\0" * (100 - len(head)))
    assert (workdir / "big.ckpt").stat().st_size == 100
    fails_with_one_line(capsys, "certify", "--model", "big.ckpt")


def test_checkpoint_of_unknown_model_kind_exits_2(workdir, capsys):
    # a flat model relabelled with a misspelt kind; at 2 symbols it would
    # load as a stream model with every name and shape matching
    from streamformer.logic import task_vocabulary
    from streamformer.model import FlatVocabTransformer, ModelConfig, save_model
    from streamformer.tensor import load_checkpoint, save_checkpoint
    save_model(FlatVocabTransformer(ModelConfig(d_model=16, heads=2, ffn_dim=8,
                                                enc_layers=1, dec_layers=1),
                                    task_vocabulary("prop", 2)), "flat.ckpt")
    arrays, meta = load_checkpoint("flat.ckpt")
    save_checkpoint("m.ckpt", arrays, dict(meta, kind="FlatVocabTransformr"))
    fails_with_one_line(capsys, "certify", "--model", "m.ckpt", "--task",
                        "prop", "--trials", "1", "--max-len", "4")


def test_dataset_not_utf8_exits_2(workdir, capsys):
    (workdir / "bad.tsv").write_bytes(b"#task=prop aps=3\n\xff\xfe\ta\n")
    fails_with_one_line(capsys, "train", "--data", "bad.tsv")


def test_deeply_nested_source_exits_2(workdir, capsys):
    # the source is rejected by the parser before anything is decoded
    from streamformer.logic import task_vocabulary
    from streamformer.model import ModelConfig, Seq2SeqModel, save_model
    save_model(Seq2SeqModel(ModelConfig(d_model=8, heads=2, ffn_dim=8,
                                        enc_layers=1, dec_layers=1),
                            task_vocabulary("prop", 3)), "m.ckpt")
    (workdir / "deep.tsv").write_text("#task=prop aps=3\n" + "!" * 3000
                                      + "a\ta1\n")
    fails_with_one_line(capsys, "eval", "--model", "m.ckpt",
                        "--data", "deep.tsv")
    fails_with_one_line(capsys, "topn", "--model", "m.ckpt",
                        "--data", "deep.tsv", "--n", "2")


@pytest.mark.parametrize("argv", [
    ("gen-data", "--task", "prop", "--aps", "0", "--n", "5"),
    ("gen-data", "--task", "copying", "--aps", "30", "--n", "2"),
    ("gen-data", "--task", "ltl", "--aps", "27", "--n", "2"),
    ("gen-data", "--task", "prop", "--aps", "3", "--n", "-1"),
    ("time", "--aps", "1,x"),
    ("time", "--aps", "2,2", "--samples", "1", "--length", "4"),
    ("heatmap", "--model", "m.ckpt", "--task", "prop", "--aps", "x",
     "--lengths", "3"),
    ("heatmap", "--model", "m.ckpt", "--task", "prop", "--aps", "2",
     "--lengths", "3,y"),
    ("certify", "--trials", "1", "--max-len", "-3"),
    ("certify", "--trials", "2", "--max-len", "4"),
    ("eval", "--model", "m.ckpt", "--data", "p.tsv", "--max-len", "0"),
    ("eval", "--model", "m.ckpt", "--data", "p.tsv", "--beam", "2",
     "--max-len", "0"),
    ("alpha-cov", "--model", "m.ckpt", "--data", "p.tsv", "--max-len", "0"),
    ("topn", "--model", "m.ckpt", "--data", "p.tsv", "--n", "2",
     "--max-len", "0"),
    ("--out", "r.txt", "eval", "--model", "m.ckpt", "--data", "p.tsv",
     "--beam", "0"),
    ("--out", "r.txt", "eval", "--model", "m.ckpt", "--data", "p.tsv",
     "--beam", "-3"),
    ("--out", "h.csv", "heatmap", "--model", "m.ckpt", "--task", "prop",
     "--aps", "2", "--lengths", "3", "--beam", "-1"),
    ("--out", "t.txt", "time", "--aps", "1,3", "--samples", "1",
     "--length", "2"),
    ("--out", "e.ckpt", "train", "--data", "e.tsv"),
    ("--out", "n.ckpt", "train", "--data", "p.tsv", "--learning-rate", "nan"),
    ("--out", "n.ckpt", "train", "--data", "p.tsv", "--learning-rate", "inf"),
    ("--seed", "-1", "gen-data", "--task", "prop", "--aps", "3", "--n", "2"),
    ("--seed", "-1", "--out", "s.ckpt", "train", "--data", "p.tsv",
     "--steps", "1"),
    ("--seed", "-1", "--out", "c.txt", "certify", "--trials", "3",
     "--max-len", "2"),
    ("--seed", "-1", "--out", "a.txt", "alpha-cov", "--model", "m.ckpt",
     "--data", "p.tsv", "--max-len", "2"),
    ("--seed", "-1", "--out", "h.csv", "heatmap", "--model", "m.ckpt",
     "--task", "prop", "--aps", "2", "--lengths", "3", "--per-cell", "1"),
    ("--seed", "-1", "--out", "t.txt", "time", "--aps", "1,2", "--samples",
     "1", "--length", "4"),
    ("--out", "h.csv", "heatmap", "--model", "m.ckpt", "--task", "prop",
     "--aps", "-2", "--lengths", "3", "--per-cell", "1"),
    ("--out", "h.csv", "heatmap", "--model", "m.ckpt", "--task", "prop",
     "--aps", "2", "--lengths", "-3", "--per-cell", "1"),
], ids=["prop-no-symbols", "copying-too-many-symbols", "ltl-too-many-symbols",
        "negative-pair-count", "time-list-not-integers",
        "time-repeated-counts", "heatmap-aps-not-integers",
        "heatmap-lengths-not-integers", "certify-negative-max-len",
        "certify-fewer-trials-than-tasks",
        "eval-zero-max-len", "eval-beam-zero-max-len",
        "alpha-cov-zero-max-len", "topn-zero-max-len", "eval-zero-beam",
        "eval-negative-beam", "heatmap-negative-beam",
        "time-length-below-streams", "train-empty-dataset",
        "train-nan-learning-rate", "train-inf-learning-rate",
        "gen-data-negative-seed", "train-negative-seed",
        "certify-negative-seed", "alpha-cov-negative-seed",
        "heatmap-negative-seed", "time-negative-seed",
        "heatmap-negative-aps", "heatmap-negative-lengths"])
def test_out_of_range_arguments_exit_2(workdir, capsys, argv):
    from streamformer.logic import task_vocabulary
    from streamformer.model import ModelConfig, Seq2SeqModel, save_model
    save_model(Seq2SeqModel(ModelConfig(d_model=8, heads=2, ffn_dim=8,
                                        enc_layers=1, dec_layers=1),
                            task_vocabulary("prop", 3)), "m.ckpt")
    (workdir / "p.tsv").write_text("#task=prop aps=3\n!a\ta0\n")
    (workdir / "e.tsv").write_text("#task=prop aps=3\n")   # gen-data --n 0
    fails_with_one_line(capsys, *argv)
    assert sorted(f.name for f in workdir.iterdir()) == ["e.tsv", "m.ckpt",
                                                         "p.tsv"]


CERTIFY = ("certify", "--trials", "1")
TRAIN = ("--out", "s.ckpt", "train", "--data", "p.tsv", "--steps", "1")


@pytest.mark.parametrize("text, argv", [
    (b"d_model=\xff\n", CERTIFY), (b"d_model=abc\n", CERTIFY),
    (b"dropout=x\n", CERTIFY), (b"cross_modes=1\n", CERTIFY),
    (b"batch_size=2.5\n", CERTIFY), (b"heads=0\n", CERTIFY),
    (b"ffn_dim=0\n", CERTIFY), (b"enc_layers=-2\n", CERTIFY),
    (b"dec_layers=0\n", CERTIFY), (b"seed=-1\n", TRAIN),
], ids=["not-utf8", "int-field", "float-field", "modes-field", "int-not-float",
        "no-heads", "no-ffn", "negative-enc-layers", "no-dec-layers",
        "train-negative-seed"])
def test_malformed_config_exits_2(workdir, capsys, text, argv):
    (workdir / "bad.cfg").write_bytes(text)
    (workdir / "p.tsv").write_text("#task=prop aps=3\n!a\ta0\n")
    fails_with_one_line(capsys, "--config", "bad.cfg", *argv)
    assert not (workdir / "s.ckpt").exists()


def test_config_parsing_and_model_mapping(workdir):
    text = ("# comment line\n"
            "\n"
            "d_model=24   # trailing comment\n"
            "cosine_head=false\n"
            "dropout=0.25\n"
            "cross_modes=per,agg\n"
            "steps=7\n")
    (workdir / "c.cfg").write_text(text)
    cfg = cli.load_config(workdir / "c.cfg")
    assert cfg == {"d_model": 24, "cosine_head": False, "dropout": 0.25,
                   "cross_modes": ("per", "agg"), "steps": 7}
    mc = cli._model_config(cfg)
    assert mc.d_model == 24 and mc.cross_modes == ("per", "agg")
    assert mc.cosine_head is False and mc.dropout == 0.25

    (workdir / "code.cfg").write_text("code=EP-DP-CA\nd_model=24\n")
    mc = cli._model_config(cli.load_config(workdir / "code.cfg"))
    assert ablation_code(mc) == "EP-DP-CA" and mc.d_model == 24

    (workdir / "one.cfg").write_text("cross_modes=agg\n")
    assert cli._model_config(
        cli.load_config(workdir / "one.cfg")).cross_modes == ("agg",)

    (workdir / "mangled.cfg").write_text("oops\n")
    with pytest.raises(ContractError):
        cli.load_config(workdir / "mangled.cfg")
