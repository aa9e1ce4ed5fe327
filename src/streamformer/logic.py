"""Polish-notation logic tasks: parsing, checking, dataset generation.

Three sequence tasks share this module.  Copying maps a string to itself.
The propositional task maps a formula to a minimal partial assignment that
forces it true.  The temporal task maps a formula to a symbolic lasso
trace (finite prefix, repeated cycle) that satisfies it.

Formulas are written prefix-style with one character per operator, e.g.
"&a|bc" for a and (b or c).  Proposition symbols are lowercase letters and
are the interchangeable tier of the vocabulary; operators, constants and
trace punctuation are base tokens.

Checkers are exact: assignments are verified by enumerating completions,
traces by a least-fixpoint evaluation over the lasso positions, and
symbolic traces by enumerating every concretization.  Generators are
seeded and emit only pairs their own checker accepts.
"""
from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ContractError, InvalidTraceError, ParseError,
                     ResourceError, VocabularyError)
from .streams import RESERVED, Vocabulary, canonicalize_first_appearance

AP_CHARS = "abcdefghijklmnopqrstuvwxyz"

_ARITY = {"true": 0, "ap": 0, "not": 1, "next": 1,
          "and": 2, "or": 2, "iff": 2, "xor": 2, "until": 2}


@dataclass(frozen=True)
class Formula:
    kind: str
    a: "Formula | None" = None
    b: "Formula | None" = None
    name: str | None = None

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ContractError(f"unknown node kind {self.kind!r}")
        arity = _ARITY[self.kind]
        have = (self.a is not None) + (self.b is not None)
        if have != arity:
            raise ContractError(f"{self.kind} takes {arity} children")
        if (self.name is not None) != (self.kind == "ap"):
            raise ContractError("only proposition nodes carry a name")


TRUE = Formula("true")


def Ap(name):
    return Formula("ap", name=name)


def Not(a):
    return Formula("not", a=a)


def And(a, b):
    return Formula("and", a=a, b=b)


def Or(a, b):
    return Formula("or", a=a, b=b)


def Iff(a, b):
    return Formula("iff", a=a, b=b)


def Xor(a, b):
    return Formula("xor", a=a, b=b)


def Next(a):
    return Formula("next", a=a)


def Until(a, b):
    return Formula("until", a=a, b=b)


FALSE = Not(TRUE)   # no first-class false node; canonical text is "!1"


def size(phi):
    if phi.kind in ("true", "ap"):
        return 1
    if phi.b is None:
        return 1 + size(phi.a)
    return 1 + size(phi.a) + size(phi.b)


def depth(phi):
    if phi.kind in ("true", "ap"):
        return 0
    if phi.b is None:
        return 1 + depth(phi.a)
    return 1 + max(depth(phi.a), depth(phi.b))


def aps(phi):
    """Sorted proposition names appearing in the formula."""
    out = set()
    stack = [phi]
    while stack:
        n = stack.pop()
        if n.kind == "ap":
            out.add(n.name)
        if n.a is not None:
            stack.append(n.a)
        if n.b is not None:
            stack.append(n.b)
    return sorted(out)


def eval_total(phi, valuation):
    """Truth value under a valuation; unlisted propositions read false."""
    k = phi.kind
    if k == "true":
        return True
    if k == "ap":
        return bool(valuation.get(phi.name, False))
    if k == "not":
        return not eval_total(phi.a, valuation)
    if k == "and":
        return eval_total(phi.a, valuation) and eval_total(phi.b, valuation)
    if k == "or":
        return eval_total(phi.a, valuation) or eval_total(phi.b, valuation)
    if k == "iff":
        return eval_total(phi.a, valuation) == eval_total(phi.b, valuation)
    if k == "xor":
        return eval_total(phi.a, valuation) != eval_total(phi.b, valuation)
    raise ContractError(f"{k} has no propositional value")


# --------------------------------------------------------------------- parsing

_PROP_UNARY = {"!": Not}
_PROP_BINARY = {"&": And, "|": Or, "=": Iff, "^": Xor}
_LTL_UNARY = {"!": Not, "X": Next}
_LTL_BINARY = {"&": And, "U": Until}
_STEP_UNARY = {"!": Not}
_STEP_BINARY = {"&": And, "|": Or}

_OP_CHAR = {"not": "!", "and": "&", "or": "|", "iff": "=", "xor": "^",
            "next": "X", "until": "U"}


def _parse_at(text, i, unary, binary, consts, offset):
    if i >= len(text):
        raise ParseError("formula ends before its operands", offset + i)
    c = text[i]
    if c in consts:
        return consts[c], i + 1
    if c in AP_CHARS:
        return Ap(c), i + 1
    if c in unary:
        a, j = _parse_at(text, i + 1, unary, binary, consts, offset)
        return unary[c](a), j
    if c in binary:
        a, j = _parse_at(text, i + 1, unary, binary, consts, offset)
        b, k = _parse_at(text, j, unary, binary, consts, offset)
        return binary[c](a, b), k
    raise ParseError(f"unknown symbol {c!r}", offset + i)


def _parse_full(text, unary, binary, consts, offset=0):
    node, j = _parse_at(text, 0, unary, binary, consts, offset)
    if j != len(text):
        raise ParseError("trailing input after a complete formula", offset + j)
    return node


def parse_prop(text):
    """Prefix propositional formula over 1 ! & | = ^ and letters."""
    return _parse_full(text, _PROP_UNARY, _PROP_BINARY, {"1": TRUE})


def parse_ltl(text):
    """Prefix temporal formula over 1 ! & X U and letters."""
    return _parse_full(text, _LTL_UNARY, _LTL_BINARY, {"1": TRUE})


def _parse_step(text, offset):
    return _parse_full(text, _STEP_UNARY, _STEP_BINARY,
                       {"1": TRUE, "0": FALSE}, offset)


def unparse(phi):
    k = phi.kind
    if k == "true":
        return "1"
    if k == "ap":
        return phi.name
    if phi.b is None:
        return _OP_CHAR[k] + unparse(phi.a)
    return _OP_CHAR[k] + unparse(phi.a) + unparse(phi.b)


@dataclass(frozen=True)
class LassoTrace:
    """Symbolic trace: constraint per prefix step, then a repeated cycle."""
    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        if not self.cycle:
            raise ContractError("trace cycle must be nonempty")
        for s in self.prefix + self.cycle:
            if not isinstance(s, Formula):
                raise ContractError("trace steps must be formulas")

    @property
    def steps(self):
        return list(self.prefix) + list(self.cycle)


def parse_trace(text):
    """Trace text "s;s;{s;s}": ';'-separated steps, cycle in braces."""
    brace = text.find("{")
    if brace < 0:
        raise ParseError("trace needs a cycle in braces", len(text))
    if not text.endswith("}"):
        raise ParseError("trace must end at the cycle's closing brace",
                         len(text))
    body = text[brace + 1:-1]
    if "{" in body or "}" in body:
        raise ParseError("nested braces", brace + 1 + min(
            i for i, c in enumerate(body) if c in "{}"))
    head = text[:brace]
    prefix = []
    if head:
        if not head.endswith(";"):
            raise ParseError("prefix steps must be ';'-terminated", brace)
        pos = 0
        for piece in head[:-1].split(";"):
            if not piece:
                raise ParseError("empty trace step", pos)
            prefix.append(_parse_step(piece, pos))
            pos += len(piece) + 1
    cycle = []
    pos = brace + 1
    for piece in body.split(";"):
        if not piece:
            raise ParseError("empty trace step", pos)
        cycle.append(_parse_step(piece, pos))
        pos += len(piece) + 1
    return LassoTrace(tuple(prefix), tuple(cycle))


def unparse_trace(trace):
    head = "".join(unparse(s) + ";" for s in trace.prefix)
    return head + "{" + ";".join(unparse(s) for s in trace.cycle) + "}"


# ----------------------------------------------------------------- assignments

def parse_assignment(text):
    """Target text "a1c0" -> {a: True, c: False}."""
    out = {}
    if len(text) % 2:
        raise ParseError("assignment must pair symbols with values", len(text) - 1)
    for i in range(0, len(text), 2):
        ap, val = text[i], text[i + 1]
        if ap not in AP_CHARS:
            raise ParseError(f"expected a proposition, got {ap!r}", i)
        if val not in "01":
            raise ParseError(f"expected 0 or 1, got {val!r}", i + 1)
        if ap in out:
            raise ParseError(f"{ap!r} assigned twice", i)
        out[ap] = val == "1"
    return out


def format_assignment(assignment):
    return "".join(ap + ("1" if assignment[ap] else "0")
                   for ap in sorted(assignment))


def check_assignment(phi, assignment):
    """True iff phi holds under every completion of the partial map."""
    free = [p for p in aps(phi) if p not in assignment]
    if len(free) > 20:
        raise ResourceError(f"{len(free)} unassigned propositions is too many "
                            "to enumerate")
    base = {k: bool(v) for k, v in assignment.items()}
    for bits in itertools.product((False, True), repeat=len(free)):
        base.update(zip(free, bits))
        if not eval_total(phi, base):
            return False
    return True


# ---------------------------------------------------------------- trace checks

def step_literals(phi):
    """Read a step constraint as {ap: bool}; conjunction of literals only."""
    out = {}

    def walk(n):
        if n.kind == "true":
            return
        if n.kind == "ap":
            lit, val = n.name, True
        elif n.kind == "not" and n.a.kind == "ap":
            lit, val = n.a.name, False
        elif n.kind == "and":
            walk(n.a)
            walk(n.b)
            return
        elif n.kind == "not" and n.a.kind == "true":
            raise InvalidTraceError("step constraint is unsatisfiable")
        else:
            raise InvalidTraceError(
                f"step is not a conjunction of literals: {unparse(phi)}")
        if out.get(lit, val) != val:
            raise InvalidTraceError(f"step contradicts itself on {lit!r}")
        out[lit] = val

    walk(phi)
    return out


def _lasso_eval_batch(phi, vals, u_len, universe):
    """Satisfaction of phi at position 0 for a batch of concrete lassos.

    vals: bool (N, n, m) with columns in universe order; position n-1
    wraps to u_len.  Until is a least fixpoint: start false, iterate until
    stable, which takes at most n rounds.
    """
    N, n, m = vals.shape
    succ = np.arange(1, n + 1)
    succ[-1] = u_len
    ap_idx = {name: j for j, name in enumerate(universe)}

    def sat(node):
        k = node.kind
        if k == "true":
            return np.ones((N, n), dtype=bool)
        if k == "ap":
            j = ap_idx.get(node.name)
            if j is None:
                return np.zeros((N, n), dtype=bool)
            return vals[:, :, j]
        if k == "not":
            return ~sat(node.a)
        if k == "and":
            return sat(node.a) & sat(node.b)
        if k == "next":
            return sat(node.a)[:, succ]
        if k == "until":
            a, b = sat(node.a), sat(node.b)
            fix = np.zeros((N, n), dtype=bool)
            for _ in range(n + 1):
                new = b | (a & fix[:, succ])
                if np.array_equal(new, fix):
                    return fix
                fix = new
            raise ContractError("fixpoint failed to converge")
        raise ContractError(f"{k} has no temporal semantics")

    return sat(phi)[:, 0]


def eval_lasso(phi, trace):
    """Does the concrete trace satisfy phi?

    Steps must be conjunctions of literals; propositions a step leaves
    unmentioned are false at that step.  Contradictory or non-literal
    steps raise InvalidTraceError.
    """
    lits = [step_literals(s) for s in trace.steps]
    universe = sorted(set(aps(phi)).union(*[set(d) for d in lits], set()))
    n = len(lits)
    vals = np.zeros((1, n, len(universe)), dtype=bool)
    for t, d in enumerate(lits):
        for name, v in d.items():
            vals[0, t, universe.index(name)] = v
    return bool(_lasso_eval_batch(phi, vals, len(trace.prefix), universe)[0])


def check_symbolic_trace(phi, trace, max_concretizations=1 << 18):
    """True iff every concrete trace the symbolic one allows satisfies phi.

    A step admits every valuation of the universe (phi's propositions plus
    the trace's) that satisfies its constraint; the trace's concretizations
    are the per-step Cartesian product, one fixed choice per position.
    Unsatisfiable steps are an invalid trace, not a vacuous pass.
    """
    steps = trace.steps
    n = len(steps)
    if n > 8:
        raise ResourceError(f"{n} steps is too long to enumerate")
    for s in steps:
        if len(aps(s)) > 3:
            raise ResourceError("step constrains more than 3 propositions")
    universe = sorted(set(aps(phi)).union(*[set(aps(s)) for s in steps], set()))
    m = len(universe)
    if m > 10:
        raise ResourceError(f"{m} propositions is too many to enumerate")
    sats = []
    for s in steps:
        ok = [bits for bits in itertools.product((False, True), repeat=m)
              if eval_total(s, dict(zip(universe, bits)))]
        if not ok:
            raise InvalidTraceError(
                f"step {unparse(s)!r} admits no valuation")
        sats.append(np.array(ok, dtype=bool).reshape(len(ok), m))
    total = 1
    for s in sats:
        total *= len(s)
        if total > max_concretizations:
            raise ResourceError(f"more than {max_concretizations} "
                                "concretizations")
    grids = np.meshgrid(*[np.arange(len(s)) for s in sats], indexing="ij")
    idx = np.stack(grids, axis=-1).reshape(total, n)
    vals = np.stack([sats[t][idx[:, t]] for t in range(n)], axis=1)
    return bool(_lasso_eval_batch(phi, vals, len(trace.prefix), universe).all())


# ------------------------------------------------------------------- datasets

_TASKS = ("copying", "prop", "ltl")


@dataclass
class Dataset:
    task: str
    ap_count: int
    pairs: list

    def __post_init__(self):
        if self.task not in _TASKS:
            raise ContractError(f"unknown task {self.task!r}")
        if not 1 <= self.ap_count <= len(AP_CHARS):
            raise ContractError("ap_count out of range")

    def __len__(self):
        return len(self.pairs)

    def save(self, path):
        lines = [f"#task={self.task} aps={self.ap_count}\n"]
        for src, tgt in self.pairs:
            if "\t" in src or "\n" in src or "\t" in tgt or "\n" in tgt:
                raise ContractError("record contains a delimiter character")
            lines.append(f"{src}\t{tgt}\n")
        Path(path).write_text("".join(lines), encoding="utf-8")

    @staticmethod
    def load(path):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise ParseError("dataset is not UTF-8 text", e.start) from None
        lines = text.split("\n")
        head = re.fullmatch(r"#task=(\w+) aps=(\d+)", lines[0])
        if not head:
            raise ParseError("missing dataset header", 0)
        pairs = []
        for i, line in enumerate(lines[1:]):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"record on line {i + 2} is not src<TAB>tgt", 0)
            pairs.append((parts[0], parts[1]))
        return Dataset(head.group(1), int(head.group(2)), pairs)


def task_vocabulary(task, ap_count):
    """Vocabulary for a task: operators are base, propositions interchange."""
    if not 1 <= ap_count <= len(AP_CHARS):
        raise VocabularyError("ap_count out of range")
    extra = {"copying": "", "prop": "10!&|=^", "ltl": "10!&|XU;{}"}
    if task not in extra:
        raise ContractError(f"unknown task {task!r}")
    return Vocabulary(RESERVED + tuple(extra[task]),
                      tuple(AP_CHARS[:ap_count]))


# ----------------------------------------------------------------- generators

def _random_formula(rng, target_size, unary, binary, weights, ap_pool,
                    p_true=0.1):
    if target_size <= 1:
        if rng.random() < p_true:
            return TRUE
        return Ap(ap_pool[int(rng.integers(len(ap_pool)))])
    feasible = [(k, f, 1) for k, f in unary.items()]
    if target_size >= 3:
        feasible += [(k, f, 2) for k, f in binary.items()]
    w = np.array([weights[k] for k, _, _ in feasible], dtype=float)
    pick = int(rng.choice(len(feasible), p=w / w.sum()))
    kind, ctor, arity = feasible[pick]
    if arity == 1:
        return ctor(_random_formula(rng, target_size - 1, unary, binary,
                                    weights, ap_pool, p_true))
    left = int(rng.integers(1, target_size - 1))
    return ctor(_random_formula(rng, left, unary, binary, weights, ap_pool,
                                p_true),
                _random_formula(rng, target_size - 1 - left, unary, binary,
                                weights, ap_pool, p_true))


_PROP_GEN_UNARY = {"not": Not}
_PROP_GEN_BINARY = {"and": And, "or": Or, "iff": Iff, "xor": Xor}
_LTL_GEN_UNARY = {"not": Not, "next": Next}
_LTL_GEN_BINARY = {"and": And, "until": Until}

PROP_WEIGHTS = {"not": 1.0, "and": 1.0, "or": 1.0, "iff": 1.0, "xor": 1.0}
LTL_WEIGHTS = {"not": 1.0, "and": 1.0, "next": 1.0, "until": 1.0}


def random_formula(rng, task, target_size, ap_pool):
    """One random well-formed formula in the task's dialect, no filtering."""
    if task == "prop":
        tables = (_PROP_GEN_UNARY, _PROP_GEN_BINARY, PROP_WEIGHTS)
    elif task == "ltl":
        tables = (_LTL_GEN_UNARY, _LTL_GEN_BINARY, LTL_WEIGHTS)
    else:
        raise ContractError(f"no formula dialect for task {task!r}")
    return _random_formula(rng, target_size, *tables, ap_pool)


def gen_copying(seed, vocab_size, len_range, n):
    """Identity pairs over `vocab_size` interchangeable characters."""
    lo, hi = len_range
    if lo < 1 or hi < lo:
        raise ContractError("bad length range")
    rng = np.random.default_rng(seed)
    letters = AP_CHARS[:vocab_size]
    pairs = []
    for _ in range(n):
        length = int(rng.integers(lo, hi + 1))
        s = "".join(letters[i] for i in rng.integers(0, vocab_size, length))
        pairs.append((s, s))
    return Dataset("copying", vocab_size, pairs)


def _minimal_assignment(phi):
    """Smallest partial map forcing phi true; ties broken canonically.

    Subsets are tried by cardinality, then lexicographically by symbol,
    then with values counting up from all-false.  None if unsatisfiable.
    """
    names = aps(phi)
    for c in range(len(names) + 1):
        for combo in itertools.combinations(names, c):
            for bits in itertools.product((False, True), repeat=c):
                a = dict(zip(combo, bits))
                if check_assignment(phi, a):
                    return a
    return None


def gen_prop(seed, ap_count, size_range, n, weights=None):
    """Formula -> minimal forcing assignment pairs, self-checked."""
    lo, hi = size_range
    if lo < 1 or hi < lo:
        raise ContractError("bad size range")
    rng = np.random.default_rng(seed)
    weights = dict(PROP_WEIGHTS, **(weights or {}))
    pool = AP_CHARS[:ap_count]
    pairs = []
    attempts = 0
    while len(pairs) < n and attempts < 50 * n:
        attempts += 1
        phi = _random_formula(rng, int(rng.integers(lo, hi + 1)),
                              _PROP_GEN_UNARY, _PROP_GEN_BINARY, weights, pool)
        a = _minimal_assignment(phi)
        if a is None:
            continue
        pairs.append((unparse(phi), format_assignment(a)))
    if len(pairs) < n:
        warnings.warn(f"generated only {len(pairs)} of {n} requested pairs")
    return Dataset("prop", ap_count, pairs)


def _literal_step(universe, bits):
    lits = [Ap(p) if b else Not(Ap(p)) for p, b in zip(universe, bits)]
    if not lits:
        return TRUE
    out = lits[-1]
    for lit in lits[-2::-1]:
        out = And(lit, out)
    return out


def _first_satisfying_lasso(phi, max_u=4, max_v=3, budget=1 << 18,
                            chunk=8192):
    """First concrete lasso satisfying phi, in canonical order.

    Shapes (|u|, |v|) are tried by total length then prefix length; within
    a shape, valuation tuples count up with step 0 / first symbol as the
    most significant bit.  Scanning stops once `budget` candidates have
    been evaluated; None means nothing was found in bounds.
    """
    universe = aps(phi)
    m = len(universe)
    shapes = sorted(((u, v) for u in range(max_u + 1)
                     for v in range(1, max_v + 1)),
                    key=lambda s: (s[0] + s[1], s[0]))
    spent = 0
    for u, v in shapes:
        n = u + v
        bits = n * m
        count = 1 << bits
        take = min(count, budget - spent)
        spent += take
        start = 0
        while start < take:
            stop = min(start + chunk, take)
            ints = np.arange(start, stop, dtype=np.uint64)
            if m:
                shift = np.array([bits - 1 - (t * m + j)
                                  for t in range(n) for j in range(m)],
                                 dtype=np.uint64)
                vals = ((ints[:, None] >> shift[None, :]) & 1).astype(bool)
                vals = vals.reshape(len(ints), n, m)
            else:
                vals = np.zeros((len(ints), n, 0), dtype=bool)
            sat = _lasso_eval_batch(phi, vals, u, universe)
            hit = np.flatnonzero(sat)
            if hit.size:
                w = vals[hit[0]]
                steps = [_literal_step(universe, w[t]) for t in range(n)]
                return LassoTrace(tuple(steps[:u]), tuple(steps[u:]))
            start = stop
        if spent >= budget:
            return None
    return None


def gen_ltl(seed, ap_count, size_range, n, weights=None, max_u=4, max_v=3):
    """Formula -> first satisfying concrete lasso pairs, self-checked."""
    lo, hi = size_range
    if lo < 1 or hi < lo:
        raise ContractError("bad size range")
    rng = np.random.default_rng(seed)
    weights = dict(LTL_WEIGHTS, **(weights or {}))
    pool = AP_CHARS[:ap_count]
    pairs = []
    attempts = 0
    while len(pairs) < n and attempts < 50 * n:
        attempts += 1
        phi = _random_formula(rng, int(rng.integers(lo, hi + 1)),
                              _LTL_GEN_UNARY, _LTL_GEN_BINARY, weights, pool)
        trace = _first_satisfying_lasso(phi, max_u, max_v)
        if trace is None:
            continue
        if not eval_lasso(phi, trace) or not check_symbolic_trace(phi, trace):
            raise ContractError("generated trace failed its own check")
        pairs.append((unparse(phi), unparse_trace(trace)))
    if len(pairs) < n:
        warnings.warn(f"generated only {len(pairs)} of {n} requested pairs")
    return Dataset("ltl", ap_count, pairs)


def perturb_renamed(dataset):
    """Relabel every pair to first-appearance canonical symbol order."""
    vocab = task_vocabulary(dataset.task, dataset.ap_count)
    out = []
    for src, tgt in dataset.pairs:
        pair = (vocab.encode(src), vocab.encode(tgt))
        (rs, rt), _ = canonicalize_first_appearance(pair, vocab)
        out.append((vocab.decode(rs), vocab.decode(rt)))
    return Dataset(dataset.task, dataset.ap_count, out)


def perturb_reduced(dataset, fraction, seed=0):
    """Keep a seeded random fraction of the pairs, original order."""
    if not 0 < fraction <= 1:
        raise ContractError("fraction must lie in (0, 1]")
    keep = int(round(len(dataset.pairs) * fraction))
    rng = np.random.default_rng(seed)
    idx = sorted(rng.choice(len(dataset.pairs), size=keep, replace=False))
    return Dataset(dataset.task, dataset.ap_count,
                   [dataset.pairs[i] for i in idx])
