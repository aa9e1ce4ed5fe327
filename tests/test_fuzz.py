"""Seeded fuzzing of the loaders and parsers.

Valid checkpoint, dataset and config files are mutated byte by byte, and
random strings are fed to the formula, trace and assignment parsers.
Whatever the input, only ContractError or ResourceError may escape, since
those are the errors the command line turns into exit codes 2 and 3.
"""
import numpy as np
import pytest

import streamformer.cli as cli
from streamformer import logic as L
from streamformer.errors import ContractError, ResourceError
from streamformer.model import ModelConfig, Seq2SeqModel, load_model, save_model
from streamformer.training import TrainConfig

ROUNDS = 300
# bytes that keep a mutated file close to the formats it imitates
SALIENT = b'0123456789-.,=#{}[]":\n\t ' + b"\xff"


def mutate(data, rng, hot):
    """One to three random edits, most of them in the first `hot` bytes."""
    b = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        span = hot if rng.random() < 0.75 else len(b)
        i = int(rng.integers(min(span, len(b)) + 1))
        kind = int(rng.integers(5))
        if kind == 0 and i < len(b):
            b[i] = int(rng.integers(256))
        elif kind == 1 and i < len(b):
            b[i] = SALIENT[int(rng.integers(len(SALIENT)))]
        elif kind == 2:
            b[i:i] = bytes(rng.integers(256, size=int(rng.integers(1, 9)),
                                        dtype=np.uint8))
        elif kind == 3:
            del b[i:i + int(rng.integers(1, 17))]
        else:
            del b[i:]
    return bytes(b)


def expect_contract(call, what):
    try:
        call()
    except (ContractError, ResourceError):
        pass
    except Exception as e:
        raise AssertionError(f"{type(e).__name__} escaped on {what!r}") from e


def fuzz_file(tmp_path, valid, hot, load, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path / "fuzzed"
    for _ in range(ROUNDS):
        data = mutate(valid, rng, hot)
        path.write_bytes(data)
        expect_contract(lambda: load(path), data[:hot + 40])


def test_fuzzed_checkpoints(tmp_path):
    cfg = ModelConfig(d_model=4, heads=2, ffn_dim=4, enc_layers=1,
                      dec_layers=1)
    save_model(Seq2SeqModel(cfg, L.task_vocabulary("prop", 2)),
               tmp_path / "m.ckpt")
    valid = (tmp_path / "m.ckpt").read_bytes()
    header = valid.index(b"]\n") + 2     # magic, metadata and manifest
    fuzz_file(tmp_path, valid, header, load_model, seed=1)


def test_fuzzed_datasets(tmp_path):
    L.gen_ltl(0, 3, (3, 6), 6).save(tmp_path / "d.tsv")
    valid = (tmp_path / "d.tsv").read_bytes()
    fuzz_file(tmp_path, valid, len(valid), L.Dataset.load, seed=2)


def test_fuzzed_configs(tmp_path):
    valid = (b"# tiny\nd_model=16\nheads=2\nffn_dim=32\ndropout=0.1\n"
             b"cross_modes=per,agg\nuse_ea=false\nrope_base=100.0\n"
             b"steps=25\nbatch_size=4\nlearning_rate=0.002\n")

    def load(path):
        overrides = cli.load_config(path)
        cli._model_config(overrides)
        TrainConfig(**{k: v for k, v in overrides.items()
                       if k in cli._TRAIN_KEYS})

    fuzz_file(tmp_path, valid, len(valid), load, seed=3)
    code = b"code=EP-DP-CA\nd_model=8\nheads=2\n"
    fuzz_file(tmp_path, code, len(code), load, seed=4)


@pytest.mark.parametrize("parse", [L.parse_prop, L.parse_ltl, L.parse_trace,
                                   L.parse_assignment])
def test_fuzzed_parser_input(parse):
    rng = np.random.default_rng(5)
    alphabet = list("abcz01!&|=^XU;{}") + [" ", "\t", "é", "\x00"]
    for _ in range(4 * ROUNDS):
        text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 24))))
        expect_contract(lambda: parse(text), text)
