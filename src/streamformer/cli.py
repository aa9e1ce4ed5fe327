"""Command line surface: data generation, training, and every audit.

All subcommands share three global flags.  --config points at a key=value
file whose entries override model and trainer defaults, --seed seeds
whatever randomness the subcommand uses, and --out redirects the primary
output (dataset, checkpoint, CSV, or report).  Contract violations exit
with 2, blown enumeration budgets and exhausted memory with 3; a failed
certification exits 1.
"""

import argparse
import sys
from pathlib import Path
from typing import get_type_hints

from . import evaluation as ev
from .errors import ContractError, ResourceError
from .logic import Dataset, gen_copying, gen_ltl, gen_prop, task_vocabulary
from .model import ModelConfig, Seq2SeqModel, load_model
from .training import TrainConfig, fit

# config keys with the type of the field each one sets
_MODEL_KEYS = get_type_hints(ModelConfig)
_TRAIN_KEYS = get_type_hints(TrainConfig)
_KEY_TYPES = {**_MODEL_KEYS, **_TRAIN_KEYS, "code": str}
# the types _coerce can produce that each field type accepts; bool is not
# an int here, and a one-item tuple arrives as a plain string
_ACCEPTS = {int: (int,), float: (int, float), bool: (bool,), str: (str,),
            tuple[str, ...]: (str, tuple)}

_SIZE_DEFAULTS = {"copying": (5, 15), "prop": (3, 10), "ltl": (3, 8)}
_GENERATORS = {"copying": gen_copying, "prop": gen_prop, "ltl": gen_ltl}


def _coerce(text):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if "," in text:
        return tuple(x for x in text.split(",") if x)
    return text


def load_config(path):
    """key=value per line; blank lines and # comments are skipped.

    Each value must have the type of the config field it sets.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ContractError(f"{path} is not UTF-8 text: {e}") from None
    out = {}
    for i, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"line {i} of {path} is not key=value")
        key, value = line.split("=", 1)
        key, value = key.strip(), _coerce(value.strip())
        want = _KEY_TYPES.get(key)
        if want is not None and type(value) not in _ACCEPTS[want]:
            raise ContractError(f"line {i} of {path}: {key} must be "
                                f"{want.__name__}, not {value!r}")
        if want == tuple[str, ...] and isinstance(value, str):
            value = (value,)
        out[key] = value
    unknown = set(out) - set(_KEY_TYPES)
    if unknown:
        raise ContractError(f"unknown config keys: {sorted(unknown)}")
    return out


def _model_config(overrides):
    kw = {k: v for k, v in overrides.items() if k in _MODEL_KEYS}
    if "code" in overrides:
        return ModelConfig.from_code(overrides["code"], **kw)
    return ModelConfig(**kw)


def _train_config(overrides, args):
    kw = {k: v for k, v in overrides.items() if k in _TRAIN_KEYS}
    for name in ("steps", "batch_size", "learning_rate", "warmup"):
        value = getattr(args, name, None)
        if value is not None:
            kw[name] = value
    if args.seed is not None:
        kw["seed"] = args.seed
    return TrainConfig(**kw)


def _int_list(text, what):
    """A comma-separated list of integers, e.g. "1,2,4"."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ContractError(f"{what} must be comma-separated integers, "
                            f"not {text!r}") from None


def _encoded_pairs(dataset, vocab):
    return [(vocab.encode(s), vocab.encode(t)) for s, t in dataset.pairs]


def _emit(text, out):
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text, encoding="utf-8")


# ------------------------------------------------------------- subcommands

def _cmd_gen_data(args, cfg):
    lo = args.min_size if args.min_size is not None \
        else _SIZE_DEFAULTS[args.task][0]
    hi = args.max_size if args.max_size is not None \
        else _SIZE_DEFAULTS[args.task][1]
    seed = args.seed if args.seed is not None else 0
    d = _GENERATORS[args.task](seed, args.aps, (lo, hi), args.n)
    out = args.out or f"{args.task}.tsv"
    d.save(out)
    print(f"wrote {len(d)} pairs to {out}")
    return 0


def _cmd_train(args, cfg):
    data = Dataset.load(args.data)
    if not data.pairs:
        raise ContractError("empty dataset")
    vocab = task_vocabulary(data.task, data.ap_count)
    model = Seq2SeqModel(_model_config(cfg), vocab,
                         seed=args.seed if args.seed is not None else 0)
    tc = _train_config(cfg, args)
    out = args.out or "model.ckpt"
    fit(model, _encoded_pairs(data, vocab), tc, checkpoint_path=out,
        log=print)
    print(f"wrote checkpoint to {out}")
    return 0


def _cmd_eval(args, cfg):
    model = load_model(args.model)
    data = Dataset.load(args.data)
    r = ev.eval_correct(model, data, beam_width=args.beam,
                        max_len=args.max_len)
    _emit(f"n {r['n']}\n"
          f"correct {100.0 * r['correct']:.2f}%\n"
          f"exact {100.0 * r['exact']:.2f}%\n"
          f"resource_exceeded {r['resource_exceeded']}\n", args.out)
    return 0


def _cmd_alpha_cov(args, cfg):
    model = load_model(args.model)
    data = Dataset.load(args.data)
    seed = args.seed if args.seed is not None else 0
    rep = ev.alpha_covariance_suite(model, data, seed=seed,
                                    max_len=args.max_len)
    lines = [f"ap_count {rep.ap_count}",
             f"samples {len(rep.values)}",
             f"mean {rep.mean:.6f}",
             f"sampled_renaming_sets {rep.sampled}",
             f"skipped {rep.skipped}"]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_heatmap(args, cfg):
    model = load_model(args.model)
    spec = ev.GridSpec(args.task,
                       _int_list(args.aps, "--aps"),
                       _int_list(args.lengths, "--lengths"),
                       per_cell=args.per_cell, beam_width=args.beam,
                       seed=args.seed if args.seed is not None else 0)
    _emit(ev.heatmap(model, spec).to_csv(), args.out)
    return 0


def _cmd_topn(args, cfg):
    model = load_model(args.model)
    data = Dataset.load(args.data)
    rate = ev.topn_accuracy(model, data, args.n, max_len=args.max_len)
    _emit(f"top{args.n} {100.0 * rate:.2f}%\n", args.out)
    return 0


def _cmd_certify(args, cfg):
    model = load_model(args.model) if args.model else None
    seed = args.seed if args.seed is not None else 0
    rep = ev.certify_invariance(model, n_trials=args.trials, seed=seed,
                                task=args.task,
                                config=_model_config(cfg) if cfg else None,
                                max_len=args.max_len)
    lines = []
    for t in rep.per_task:
        lines.append(f"{t.task}: {t.trials} trials, {t.failures} failures, "
                     f"worst discrepancy {t.worst_discrepancy:.3e}, "
                     f"{t.ties_flagged} ties flagged, {t.exact} exact")
    lines.append("certification PASSED" if rep.passed
                 else "certification FAILED")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if rep.passed else 1


def _cmd_time(args, cfg):
    counts = _int_list(args.aps, "--aps")
    if args.model:
        model = load_model(args.model)
    else:
        vocab = task_vocabulary("copying", max(counts))
        model = Seq2SeqModel(_model_config(cfg), vocab,
                             seed=args.seed if args.seed is not None else 0)
    t = ev.time_scaling(model, counts, samples_per_point=args.samples,
                        length=args.length)
    lines = [f"{s} streams: {ms:.3f} ms" for s, ms in t.rows]
    lines.append(f"slope {t.slope:.4f} ms/stream, intercept "
                 f"{t.intercept:.4f} ms, r2 {t.r_squared:.4f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ------------------------------------------------------------------ parser

def _build_parser():
    p = argparse.ArgumentParser(
        prog="streamformer",
        description="stream-model training, evaluation, and audits")
    p.add_argument("--config", help="key=value overrides file")
    p.add_argument("--seed", type=int, help="seed for the subcommand")
    p.add_argument("--out", help="write the primary output here")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a task dataset")
    g.add_argument("--task", required=True, choices=sorted(_GENERATORS))
    g.add_argument("--aps", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--min-size", type=int)
    g.add_argument("--max-size", type=int)
    g.set_defaults(run=_cmd_gen_data)

    t = sub.add_parser("train", help="fit a model on a dataset file")
    t.add_argument("--data", required=True)
    t.add_argument("--steps", type=int)
    t.add_argument("--batch-size", type=int, dest="batch_size")
    t.add_argument("--learning-rate", type=float, dest="learning_rate")
    t.add_argument("--warmup", type=int)
    t.set_defaults(run=_cmd_train)

    e = sub.add_parser("eval", help="semantic and exact accuracy")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--beam", type=int, default=1)
    e.add_argument("--max-len", type=int, default=64, dest="max_len")
    e.set_defaults(run=_cmd_eval)

    a = sub.add_parser("alpha-cov", help="renaming-consistency audit")
    a.add_argument("--model", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--max-len", type=int, default=64, dest="max_len")
    a.set_defaults(run=_cmd_alpha_cov)

    h = sub.add_parser("heatmap", help="accuracy grid as CSV")
    h.add_argument("--model", required=True)
    h.add_argument("--task", required=True, choices=sorted(_GENERATORS))
    h.add_argument("--aps", required=True, help="comma separated")
    h.add_argument("--lengths", required=True, help="comma separated")
    h.add_argument("--per-cell", type=int, default=20, dest="per_cell")
    h.add_argument("--beam", type=int, default=1)
    h.set_defaults(run=_cmd_heatmap)

    n = sub.add_parser("topn", help="any-correct-in-beam accuracy")
    n.add_argument("--model", required=True)
    n.add_argument("--data", required=True)
    n.add_argument("--n", type=int, required=True)
    n.add_argument("--max-len", type=int, default=64, dest="max_len")
    n.set_defaults(run=_cmd_topn)

    c = sub.add_parser("certify", help="renaming-invariance certification")
    c.add_argument("--trials", type=int, default=500)
    c.add_argument("--model", help="checkpoint; fresh models if omitted")
    c.add_argument("--task", choices=sorted(_GENERATORS))
    c.add_argument("--max-len", type=int, default=48, dest="max_len")
    c.set_defaults(run=_cmd_certify)

    m = sub.add_parser("time", help="forward-pass scaling in stream count")
    m.add_argument("--aps", default="1,2,4,8", help="comma separated")
    m.add_argument("--samples", type=int, default=20)
    m.add_argument("--length", type=int, default=24)
    m.add_argument("--model", help="checkpoint; fresh model if omitted")
    m.set_defaults(run=_cmd_time)
    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.seed is not None and args.seed < 0:
            raise ContractError(f"--seed must be non-negative, not {args.seed}")
        cfg = load_config(args.config) if args.config else {}
        return args.run(args, cfg)
    except (ContractError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"error: out of memory: {e}" if str(e) else
              "error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
