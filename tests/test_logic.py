"""Logic layer: parsers, checkers against independent oracles, generators."""
import hashlib
import itertools
import time
from collections import Counter

import numpy as np
import pytest

from streamformer import logic as L
from streamformer.errors import (ContractError, InvalidTraceError, ParseError,
                                 ResourceError)
from streamformer.evaluation import prediction_correct

from oracles import (brute_force_symbolic_check, checker_minimal_assignment,
                     choice_random_formula, depth, oracle_eval, oracle_generate,
                     size, truth_table_check, unrolled_ltl_eval)


def rename_text(text, mapping):
    return "".join(mapping.get(c, c) for c in text)


def random_formulas(seed, count, kind, ap_count=3, sizes=(1, 9)):
    rng = np.random.default_rng(seed)
    pool = L.AP_CHARS[:ap_count]
    return [L.random_formula(rng, kind, int(rng.integers(sizes[0],
                                                         sizes[1] + 1)), pool)
            for _ in range(count)]


# ----------------------------------------------------------------- parsing

def test_parse_basic_shapes():
    phi = L.parse_prop("&ab")
    assert (phi.kind, phi.a.name, phi.b.name) == ("and", "a", "b")
    assert L.parse_prop("a").kind == "ap"
    assert L.parse_prop("1").kind == "true"
    assert L.parse_ltl("U1c").kind == "until"
    assert L.parse_ltl("X!a").a.kind == "not"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        L.parse_prop("&a")
    assert e.value.position == 2
    with pytest.raises(ParseError) as e:
        L.parse_prop("&abc")
    assert e.value.position == 3
    with pytest.raises(ParseError) as e:
        L.parse_prop("&a#")
    assert e.value.position == 2
    with pytest.raises(ParseError):
        L.parse_prop("")


def test_deep_nesting_is_a_parse_error():
    # every walk of a formula recurses once per level, so the parser stops
    # at MAX_NESTING operators on a path instead of overflowing the stack
    n = L.MAX_NESTING
    deep = L.parse_prop("!" * n + "a")
    assert L.unparse(deep) == "!" * n + "a"
    assert L.check_assignment(deep, {"a": True}) is (n % 2 == 0)
    assert depth(deep) == n
    for text, parse in (("!" * 5000 + "a", L.parse_prop),
                        ("!" * (n + 1) + "a", L.parse_prop),
                        ("&" * (n + 1) + "a" * (n + 2), L.parse_prop),
                        ("X" * 3000 + "a", L.parse_ltl),
                        ("!" * 3000 + "a;{a}", L.parse_trace)):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert "nests deeper" in str(e.value)
    with pytest.raises(ParseError) as e:
        L.parse_prop("!" * 5000 + "a")
    assert e.value.position == n


def test_each_dialect_rejects_foreign_operators():
    for bad in ("Xa", "Uab", "0"):
        with pytest.raises(ParseError):
            L.parse_prop(bad)
    for bad in ("|ab", "=ab", "^ab", "0"):
        with pytest.raises(ParseError):
            L.parse_ltl(bad)
    with pytest.raises(ParseError):
        L.parse_trace("=ab;{a}")       # steps allow only ! & | and constants


def test_parse_unparse_identity_many_random_trees():
    corpus = (random_formulas(0, 5000, "prop") +
              random_formulas(1, 5000, "ltl", sizes=(1, 12)))
    for i, phi in enumerate(corpus):
        text = L.unparse(phi)
        back = L.parse_ltl(text) if i >= 5000 else L.parse_prop(text)
        assert back == phi


def test_trace_parsing_and_round_trip():
    t = L.parse_trace("a;&ab;{b}")
    assert len(t.prefix) == 2 and len(t.cycle) == 1
    assert L.unparse(t.prefix[1]) == "&ab"
    assert L.unparse_trace(t) == "a;&ab;{b}"
    t1 = L.parse_trace("{1}")
    assert t1.prefix == () and t1.cycle[0].kind == "true"
    t2 = L.parse_trace("!a;{&a!b;|ab}")
    assert L.unparse_trace(t2) == "!a;{&a!b;|ab}"
    # '0' is accepted in steps and canonicalizes to !1
    assert L.unparse_trace(L.parse_trace("0;{1}")) == "!1;{1}"


def test_trace_parse_errors():
    for bad, pos in (("a;b", 3), ("a;{b}x", 6), ("a{b}", 1),
                     (";{a}", 0), ("a;;{b}", 2), ("a;{}", 3), ("a;{b;}", 5)):
        with pytest.raises(ParseError) as e:
            L.parse_trace(bad)
        assert e.value.position == pos, bad
    with pytest.raises(ParseError):
        L.parse_trace("a;{b{c}}")


def test_assignment_parse_and_format():
    assert L.parse_assignment("a1c0") == {"a": True, "c": False}
    assert L.parse_assignment("") == {}
    assert L.format_assignment({"c": False, "a": True}) == "a1c0"
    for bad in ("a", "a2", "1a", "a1a0"):
        with pytest.raises(ParseError):
            L.parse_assignment(bad)


def test_size_depth_aps():
    phi = L.parse_prop("&a|!bc")
    assert size(phi) == 6
    assert depth(phi) == 3
    assert L.aps(phi) == ["a", "b", "c"]
    assert L.aps(L.TRUE) == []


# ----------------------------------------------------------------- prop checks

def test_check_assignment_spec_cases():
    assert L.check_assignment(L.parse_prop("|ab"), {"a": True})
    assert not L.check_assignment(L.parse_prop("|ab"), {"a": False})
    assert not L.check_assignment(L.parse_prop("&a!a"), {})
    assert not L.check_assignment(L.parse_prop("&a!a"), {"a": True})
    assert L.check_assignment(L.TRUE, {})


def test_check_assignment_agrees_with_truth_table_oracle():
    for phi in random_formulas(7, 40, "prop", ap_count=3, sizes=(2, 10)):
        names = L.aps(phi)
        for states in itertools.product((None, False, True), repeat=len(names)):
            partial = {n: s for n, s in zip(names, states) if s is not None}
            want = truth_table_check(lambda tv: oracle_eval(phi, tv),
                                     names, partial)
            assert L.check_assignment(phi, partial) == want


def test_check_assignment_on_a_wide_formula_forced_by_one_literal():
    # |X a with X the parity of the other 19 symbols: {a: 1} forces it,
    # and under {a: 0} half of the 2^19 completions falsify it
    rest = L.Ap("b")
    for c in L.AP_CHARS[2:20]:
        rest = L.Xor(rest, L.Ap(c))
    phi = L.Or(rest, L.Ap("a"))
    assert len(L.aps(phi)) == 20
    t0 = time.perf_counter()
    assert L.check_assignment(phi, {"a": True}) is True
    assert L.check_assignment(phi, {"a": False}) is False
    assert time.perf_counter() - t0 < 0.5


def test_check_assignment_refuses_temporal_operators():
    # the whole formula is evaluated, so an operator past a deciding
    # conjunct is refused as well
    for text in ("Xa", "Uab", "&aXa", "&!1Ua1"):
        with pytest.raises(ContractError):
            L.check_assignment(L.parse_ltl(text), {"a": False})


def test_check_assignment_resource_bound():
    wide = L.Ap("a")
    for c in L.AP_CHARS[1:22]:          # 22 distinct propositions
        wide = L.Or(wide, L.Ap(c))
    with pytest.raises(ResourceError):
        L.check_assignment(wide, {})
    assert L.check_assignment(wide, {c: False for c in L.AP_CHARS[:21]}) is False


# ----------------------------------------------------------------- lasso evals

def test_eval_lasso_worked_examples():
    t = L.parse_trace("a;&a!b;{c}")
    assert L.eval_lasso(L.parse_ltl("U1c"), t)
    assert not L.eval_lasso(L.parse_ltl("XXb"), t)
    assert L.eval_lasso(L.parse_ltl("XXa"), L.parse_trace("!a;!a;{a}"))
    assert L.eval_lasso(L.parse_ltl("a"), L.parse_trace("a;{b}"))
    # cycle wraps: at the loop position X reads the cycle start
    assert L.eval_lasso(L.parse_ltl("XXa"), L.parse_trace("b;{a}"))
    assert L.eval_lasso(L.parse_ltl("Xa"), L.parse_trace("{a}"))


def test_eval_lasso_rejects_bad_steps():
    with pytest.raises(InvalidTraceError):
        L.eval_lasso(L.TRUE, L.parse_trace("&a!a;{b}"))
    with pytest.raises(InvalidTraceError):
        L.eval_lasso(L.TRUE, L.parse_trace("{0}"))
    with pytest.raises(InvalidTraceError):
        L.eval_lasso(L.TRUE, L.parse_trace("|ab;{b}"))


def make_concrete(rng, universe, max_u=3, max_v=3):
    u = int(rng.integers(0, max_u + 1))
    v = int(rng.integers(1, max_v + 1))
    vals = rng.integers(0, 2, size=(u + v, len(universe))).astype(bool)
    steps = [L._literal_step(universe, row) for row in vals]
    trace = L.LassoTrace(tuple(steps[:u]), tuple(steps[u:]))
    dicts = [dict(zip(universe, map(bool, row))) for row in vals]
    return trace, dicts[:u], dicts[u:]


def test_eval_lasso_agrees_with_unrolling_oracle():
    rng = np.random.default_rng(3)
    for phi in random_formulas(5, 150, "ltl", ap_count=3, sizes=(1, 8)):
        trace, pre, cyc = make_concrete(rng, ["a", "b", "c"])
        assert L.eval_lasso(phi, trace) == unrolled_ltl_eval(phi, pre, cyc)


def test_symbolic_check_on_concrete_traces_reduces_to_eval():
    rng = np.random.default_rng(9)
    for phi in random_formulas(11, 60, "ltl", ap_count=2, sizes=(1, 7)):
        trace, _, _ = make_concrete(rng, ["a", "b"])
        assert L.check_symbolic_trace(phi, trace) == L.eval_lasso(phi, trace)


def random_step_text(rng, size, pool):
    """A random step constraint over ! & | 1 0 and the pool's letters."""
    if size <= 1:
        leaves = pool + "10"
        return leaves[int(rng.integers(len(leaves)))]
    if size == 2 or rng.random() < 0.3:
        return "!" + random_step_text(rng, size - 1, pool)
    left = int(rng.integers(1, size - 1))
    return ("&|"[int(rng.integers(2))] + random_step_text(rng, left, pool)
            + random_step_text(rng, size - 1 - left, pool))


def test_symbolic_check_agrees_with_brute_force_oracle():
    rng = np.random.default_rng(21)
    seen = Counter()
    for _ in range(300):
        pool = L.AP_CHARS[:int(rng.integers(2, 5))]
        phi = L.random_formula(rng, "ltl", int(rng.integers(1, 7)), pool)
        steps = [random_step_text(rng, int(rng.integers(1, 6)), pool)
                 for _ in range(int(rng.integers(1, 4)))]
        u = int(rng.integers(0, len(steps)))
        text = "".join(s + ";" for s in steps[:u]) + \
            "{" + ";".join(steps[u:]) + "}"
        trace = L.parse_trace(text)
        want = brute_force_symbolic_check(phi, trace)
        seen[want] += 1
        if want is None:
            with pytest.raises(InvalidTraceError):
                L.check_symbolic_trace(phi, trace)
        else:
            assert L.check_symbolic_trace(phi, trace) is want, \
                (L.unparse(phi), text)
    assert min(seen[True], seen[False], seen[None]) >= 20, seen


def test_symbolic_check_quantifies_over_unconstrained_symbols():
    # step "a" allows b either way, so "not b" is not guaranteed
    assert not L.check_symbolic_trace(L.parse_ltl("!b"), L.parse_trace("{a}"))
    assert L.check_symbolic_trace(L.parse_ltl("a"), L.parse_trace("{a}"))
    # paper-style: X X b fails when b is merely not forbidden
    assert not L.check_symbolic_trace(L.parse_ltl("XXb"),
                                      L.parse_trace("a;&a!b;{c}"))
    assert L.check_symbolic_trace(L.parse_ltl("U1c"), L.parse_trace("{c}"))
    # disjunctive steps are fine symbolically
    assert L.check_symbolic_trace(L.parse_ltl("U1b"),
                                  L.parse_trace("|ab;{b}"))


def test_symbolic_check_errors(monkeypatch):
    with pytest.raises(InvalidTraceError):
        L.check_symbolic_trace(L.TRUE, L.parse_trace("&a!a;{b}"))
    with pytest.raises(InvalidTraceError):
        L.check_symbolic_trace(L.TRUE, L.parse_trace("{0}"))
    nine = ";".join(["a"] * 8) + ";{a}"
    with pytest.raises(ResourceError):
        L.check_symbolic_trace(L.TRUE, L.parse_trace(nine))
    eleven = "&" * 10 + L.AP_CHARS[:11]
    with pytest.raises(ResourceError):
        L.check_symbolic_trace(L.TRUE, L.parse_trace(eleven + ";{a}"))
    monkeypatch.setattr(L, "MAX_CONCRETIZATIONS", 10)
    with pytest.raises(ResourceError):
        L.check_symbolic_trace(L.parse_ltl("&a&b!c"), L.parse_trace("1;1;{1}"))


def test_gen_ltl_four_to_six_propositions():
    # each step of a generated lasso names every proposition of the formula
    for n in (4, 5, 6):
        d = L.gen_ltl(0, n, (3, 8), 100)
        assert len(d) == 100
        for src, tgt in d.pairs:
            assert L.check_symbolic_trace(L.parse_ltl(src),
                                          L.parse_trace(tgt))


def test_four_proposition_step_is_scored():
    assert prediction_correct("ltl", "&&&abcd", "{&a&b&cd}")
    assert not prediction_correct("ltl", "&&&abcd", "{&a&b&c!d}")


def test_step_literals():
    assert L.step_literals(L.parse_prop("&a!b")) == {"a": True, "b": False}
    assert L.step_literals(L.TRUE) == {}
    assert L.step_literals(L.parse_prop("&a&ba")) == {"a": True, "b": True}
    with pytest.raises(InvalidTraceError):
        L.step_literals(L.parse_prop("&a!a"))


# ----------------------------------------------------------------- generators

def test_gen_copying_identity_and_determinism():
    d1 = L.gen_copying(4, 6, (2, 9), 50)
    d2 = L.gen_copying(4, 6, (2, 9), 50)
    d3 = L.gen_copying(5, 6, (2, 9), 50)
    assert d1.pairs == d2.pairs
    assert d1.pairs != d3.pairs
    letters = set(L.AP_CHARS[:6])
    for s, t in d1.pairs:
        assert s == t
        assert 2 <= len(s) <= 9
        assert set(s) <= letters
        assert len(set(s)) <= len(s)


def test_gen_prop_self_validating_and_minimal():
    d = L.gen_prop(2, 3, (3, 9), 40)
    assert len(d) == 40
    for src, tgt in d.pairs:
        phi = L.parse_prop(src)
        a = L.parse_assignment(tgt)
        assert L.check_assignment(phi, a)
        if not a:
            continue  # tautology: the empty assignment has nothing below it
        # nothing strictly smaller forces the formula (oracle search); one
        # size down suffices because forcing maps stay forcing under extension
        names = L.aps(phi)
        for combo in itertools.combinations(names, len(a) - 1):
            for bits in itertools.product((False, True), repeat=len(combo)):
                smaller = dict(zip(combo, bits))
                assert not truth_table_check(
                    lambda tv: oracle_eval(phi, tv), names, smaller)


def test_gen_ltl_self_validating_and_bounded():
    d = L.gen_ltl(6, 3, (3, 8), 25)
    assert len(d) == 25
    for src, tgt in d.pairs:
        phi = L.parse_ltl(src)
        t = L.parse_trace(tgt)
        assert len(t.prefix) <= 4 and 1 <= len(t.cycle) <= 3
        assert L.eval_lasso(phi, t)
        assert L.check_symbolic_trace(phi, t)
        # steps are total valuations over the formula's propositions
        for s in t.steps:
            assert set(L.step_literals(s)) == set(L.aps(phi)) or not L.aps(phi)


def test_gen_ltl_first_lasso_is_canonical():
    # G a, written !U1!a, needs a everywhere: shortest all-a lasso is {a}
    assert L.unparse_trace(L._first_satisfying_lasso(L.parse_ltl("!U1!a"))) == "{a}"
    # eventually a with nothing else forced: all-false fails first, so the
    # first hit at shape (0,1) is a itself
    assert L.unparse_trace(L._first_satisfying_lasso(L.parse_ltl("U1a"))) == "{a}"
    # X a: cycle of length 1 already decides position 1 = position 0
    assert L.unparse_trace(L._first_satisfying_lasso(L.parse_ltl("Xa"))) == "{a}"
    assert L._first_satisfying_lasso(L.parse_ltl("&a!a")) is None


def test_operator_frequencies_follow_weights():
    def binary_counts(ds):
        counts = {"and": 0, "or": 0, "iff": 0, "xor": 0}
        stack = [L.parse_prop(s) for s, _ in ds.pairs]
        while stack:
            n = stack.pop()
            if n.kind in counts:
                counts[n.kind] += 1
            for c in (n.a, n.b):
                if c is not None:
                    stack.append(c)
        return counts

    flat = binary_counts(L.gen_prop(0, 3, (6, 12), 1000))
    share = {k: v / sum(flat.values()) for k, v in flat.items()}
    for k, s in share.items():
        assert 0.25 * 0.8 <= s <= 0.25 * 1.2, (k, s)


ORACLE_GRID = list(itertools.product(range(10), (1, 3, 4, 6),
                                     ((3, 10), (3, 12), (6, 12))))


@pytest.mark.parametrize("task, gen, n", [
    ("prop", L.gen_prop, 12),
    ("ltl", L.gen_ltl, 4),
], ids=["prop", "ltl"])
def test_generators_match_choice_and_checker_oracle(task, gen, n):
    # the cached operator distributions pick what rng.choice picks, and the
    # truth-table search finds what asking the checker about each candidate
    # finds
    for seed, aps, sizes in ORACLE_GRID:
        want = oracle_generate(task, seed, aps, sizes, n)
        assert gen(seed, aps, sizes, n).pairs == want, (seed, aps, sizes)


def test_random_formula_matches_choice_oracle():
    for (seed, aps, (lo, hi)), task in itertools.product(ORACLE_GRID,
                                                         ("prop", "ltl")):
        unary, binary, weights = L._DIALECTS[task]
        pool = L.AP_CHARS[:aps]
        ours, theirs = (np.random.default_rng(seed) for _ in range(2))
        for _ in range(5):
            size = int(ours.integers(lo, hi + 1))
            assert size == int(theirs.integers(lo, hi + 1))
            assert L.random_formula(ours, task, size, pool) == \
                choice_random_formula(theirs, size, unary, binary, weights,
                                      pool)
    with pytest.raises(ContractError):     # copying has no formula dialect
        L.random_formula(np.random.default_rng(0), "copying", 5, "abc")


def pairs_digest(dataset):
    text = "".join(f"{s}\t{t}\n" for s, t in dataset.pairs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_generated_data_is_pinned():
    assert pairs_digest(L.gen_prop(0, 4, (3, 10), 2000)) == "b623ba54d73bde31"
    assert pairs_digest(L.gen_ltl(0, 3, (3, 8), 200)) == "4f92db6df6685d56"


def test_minimal_assignment_matches_checker_search_on_wide_formulas():
    for phi in random_formulas(3, 60, "prop", ap_count=8, sizes=(6, 24)):
        assert L._minimal_assignment(phi) == checker_minimal_assignment(phi)


def test_assignment_search_budget(monkeypatch):
    # &a&b&cd is forced only by a1b1c1d1, the 81st and last candidate (3^4)
    phi = L.parse_prop("&a&b&cd")
    monkeypatch.setattr(L, "ASSIGNMENT_BUDGET", 81)
    assert L._minimal_assignment(phi) == dict.fromkeys("abcd", True)
    monkeypatch.setattr(L, "ASSIGNMENT_BUDGET", 80)
    assert L._minimal_assignment(phi) is None


def test_formulas_past_the_enumeration_bound_are_skipped():
    wide = L.Ap("a")
    for c in L.AP_CHARS[1:21]:          # 21 distinct propositions
        wide = L.Or(wide, L.Ap(c))
    assert L._minimal_assignment(wide) is None
    # long formulas over all 26 symbols: most have too many symbols, the
    # rest run into the budget or succeed, and none hangs the call
    d = L.gen_prop(0, 26, (120, 120), 1)
    assert len(d) == 1
    phi = L.parse_prop(d.pairs[0][0])
    assert size(phi) == 120
    assert L.check_assignment(phi, L.parse_assignment(d.pairs[0][1]))


class CountingRng:
    """A Generator whose method lookups are counted by name."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


def test_gen_prop_call_counts(monkeypatch):
    rngs, checks = [], []
    make_rng = np.random.default_rng
    check = L.check_assignment

    def counting_rng(seed):
        rngs.append(CountingRng(make_rng(seed)))
        return rngs[-1]

    def counting_check(phi, a):
        checks.append(a)
        return check(phi, a)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(L, "check_assignment", counting_check)
    d = L.gen_prop(0, 4, (3, 10), 200)
    assert len(d) == 200 and len(rngs) == 1
    assert rngs[0].calls["choice"] == 0 and rngs[0].calls["random"] > 200
    assert checks == [L.parse_assignment(t) for _, t in d.pairs]


def test_generation_exhaustion_warns(monkeypatch):
    # starve the generator outright: every candidate is rejected, the
    # attempt budget runs dry, and the shortfall must be announced
    monkeypatch.setattr(L, "_minimal_assignment", lambda phi: None)
    with pytest.warns(UserWarning):
        d = L.gen_prop(0, 3, (3, 6), 8)
    assert len(d) == 0


# ---------------------------------------------------------------- datasets

def test_dataset_file_round_trip(tmp_path):
    d = L.gen_prop(1, 3, (3, 7), 12)
    p = tmp_path / "d.tsv"
    d.save(p)
    raw = p.read_text(encoding="utf-8")
    assert raw.startswith("#task=prop aps=3\n")
    back = L.Dataset.load(p)
    assert back.task == "prop" and back.ap_count == 3
    assert back.pairs == d.pairs
    back.save(tmp_path / "e.tsv")
    assert (tmp_path / "e.tsv").read_bytes() == p.read_bytes()


def test_dataset_load_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("no header\na\tb\n")
    with pytest.raises(ParseError):
        L.Dataset.load(p)
    p.write_text("#task=prop aps=3\nonly-one-field\n")
    with pytest.raises(ParseError):
        L.Dataset.load(p)
    with pytest.raises(ContractError):
        L.Dataset("prop", 3, [("a\tb", "c")]).save(tmp_path / "x.tsv")
    with pytest.raises(ContractError):
        L.Dataset("mystery", 3, [])


def test_task_vocabulary_layouts():
    v = L.task_vocabulary("prop", 3)
    assert v.surface(v.encode("=")[0]) == "="
    assert v.encode("abc") == [v.base_size, v.base_size + 1, v.base_size + 2]
    assert all(v.is_inter(i) for i in v.encode("abc"))
    assert not v.is_inter(v.encode("0")[0])
    lt = L.task_vocabulary("ltl", 2)
    for ch in "XU;{}10!&|":
        assert not lt.is_inter(lt.encode(ch)[0])
    cp = L.task_vocabulary("copying", 4)
    assert cp.base_size == len(L.RESERVED)
    assert cp.inter_size == 4


# ------------------------------------------------------------------ renaming

def test_semantic_checks_invariant_under_renaming():
    d = L.gen_prop(13, 3, (3, 8), 15)
    maps = [{"a": "b", "b": "c", "c": "a"}, {"a": "c", "c": "a"},
            {"b": "a", "a": "b"}]
    for src, tgt in d.pairs:
        for mp in maps:
            phi = L.parse_prop(rename_text(src, mp))
            a = L.parse_assignment(rename_text(tgt, mp))
            assert L.check_assignment(phi, a)
    dl = L.gen_ltl(13, 3, (3, 7), 8)
    for src, tgt in dl.pairs:
        for mp in maps:
            assert L.check_symbolic_trace(L.parse_ltl(rename_text(src, mp)),
                                          L.parse_trace(rename_text(tgt, mp)))
