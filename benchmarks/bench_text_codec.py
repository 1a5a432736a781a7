"""Text codec cost of served requests: parse and print, per call and per
request.

Every served request carries its attributes in the paper's abbreviated
notation (§3.3), and on a warm cache turning that text into masks and
back is most of what a request costs.  This benchmark measures the
text layers on requests shaped like the served ``hot-read`` workload:
one session over ``mixed_family(16)`` (``|N|`` = 64) holding a random
200-dependency Σ, a 16-LHS working set warmed before timing, and the
read mix FD ``implies`` 35%, MVD ``implies`` 35%, ``closure`` 10%,
``basis`` 20%.

It records:

* the median µs per ``parse_dependency``, ``parse_subattribute`` and
  ``unparse_abbreviated`` call (``_timing.median_of`` over the request
  texts and the answers' elements);
* the mask codec's walk against the structural one, paired
  (``_timing.paired_speedup``): µs per text side of
  ``BasisEncoding.parse`` against ``parse_subattribute`` + ``encode``,
  and µs per printed element of ``BasisEncoding.render`` against
  ``decode`` + ``unparse_abbreviated``.  The request texts repeat (16
  left-hand sides, 64 right-hand sides), so the codec memos are emptied
  before every call of a walk row, or it would time memo hits.  The
  mask parse must cost at most half the structural parse (asserted);
* the same sweeps on a warm memo (``*_memo_*`` rows): what a served
  request pays once its texts have been seen;
* the in-process µs per request of the server's path
  ``bind → commands.execute``, paired against ``commands.execute``
  alone, which parses the text inside the run — the pair measures what
  ``bind`` costs;
* parses per request on both paths, counted by wrapping
  ``BasisEncoding.parse`` (the entry point every served text side goes
  through).  The bound path must parse each text side exactly once
  (asserted);
* codec memo misses (``BasisEncoding.codec_info``) on a second pass over
  the request set: every text and answer has been seen, so 0 (asserted).

Answers of both paths, and the masks and texts of both codecs, are
asserted identical before anything is timed.

A ``mutations`` row measures the edit path on texts shaped like the
served ``edit-replicated`` workload (an FD or MVD not in Σ, its
left-hand side from the working set):

* tree parses (``parse_subattribute`` calls, wrapped in every module
  that calls it) per ``add``, per ``retract`` and per
  :func:`~repro.store.recovery.apply_record` of each — the mask codec
  handles these texts, so each must be 0 (asserted);
* the median µs per ``add`` + ``retract`` pair through
  ``commands.execute``, on a session without a compiled plan (a
  primary's) and on one with a live plan (a follower's), memos warm as
  in a served session;
* the median ms of ``Session.snapshot_state`` at |Σ| = 200 (what a
  compaction prints per session) on a cold codec memo and on a warm one;
* µs per edit text of ``parse_dependency`` against
  ``Session.dependency_masks`` and of ``Dependency.display`` against
  ``Session.display_masks``, the latter two on a cold memo.

Results land in ``BENCH_text_codec.json``.

Run:  pytest benchmarks/bench_text_codec.py -s --benchmark-disable
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.attributes import encoding as encoding_module
from repro.attributes.encoding import BasisEncoding
from repro.attributes.parser import parse_subattribute
from repro.attributes.printer import unparse_abbreviated
from repro.core import commands
from repro.core import session as session_module
from repro.core.session import Session
from repro.dependencies import dependency as dependency_module
from repro.dependencies.dependency import (
    FunctionalDependency,
    MultivaluedDependency,
    parse_dependency,
)
from repro.serve.server import SessionManager
from repro.store.recovery import apply_record
from repro.store.wal import WalRecord
from repro.workloads.random_schemas import mixed_family
from repro.workloads.random_sigma import random_element_mask, random_sigma

from _timing import cpus, median_of, paired_speedup

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_text_codec.json"

SCALE = 16            # mixed_family(16): |N| = 64
SIGMA_SIZE = 200
WORKING_SET = 16
REQUESTS = 240
READ_MIX = (("fd", 35), ("mvd", 35), ("closure", 10), ("basis", 20))
REPEATS = 31          # median_of repeats per text-layer primitive
ROUNDS = 9            # paired rounds of the per-request comparison
CODEC_ROUNDS = 21     # paired rounds of each mask-vs-structural sweep
MAX_PARSE_RATIO = 0.5  # mask parse / (parse_subattribute + encode)
EDITS = 48            # edit texts of the mutation row
EDIT_REPEATS = 15     # median_of repeats per mutation sweep


def _build():
    root = mixed_family(SCALE)
    encoding = BasisEncoding(root)
    sigma = random_sigma(random.Random(0), encoding, SIGMA_SIZE)
    rng = random.Random(7)
    rhs_pool = [random_element_mask(rng, encoding, 0.35) for _ in range(64)]
    working = [random_element_mask(rng, encoding, 0.25)
               for _ in range(WORKING_SET)]
    session = _warm(Session(root, sigma, encoding=encoding), working)

    names = [name for name, _ in READ_MIX]
    weights = [weight for _, weight in READ_MIX]
    requests: list[commands.Command] = []
    for kind in rng.choices(names, weights, k=REQUESTS):
        lhs = encoding.decode(rng.choice(working))
        if kind in ("fd", "mvd"):
            rhs = encoding.decode(rng.choice(rhs_pool))
            cls = FunctionalDependency if kind == "fd" else MultivaluedDependency
            requests.append(commands.Implies(
                dependency=cls(lhs, rhs).display(root)))
        else:
            cls = commands.Closure if kind == "closure" else commands.Basis
            requests.append(cls(x=unparse_abbreviated(lhs, root)))
    return root, session, requests, (sigma, working, rhs_pool)


def _warm(session: Session, working: list[int]) -> Session:
    """``session`` with the closures of ``working`` cached (and so a
    compiled plan)."""
    for mask in working:
        session.result_for_mask(mask)
    return session


def _serve(session: Session, command: commands.Command, *,
           bind: bool) -> dict:
    """The server's per-request path on a warm session, in-process."""
    if bind:
        command = command.bind(session)
    return commands.execute(command, session).result


def _count_parses(function) -> int:
    """``BasisEncoding.parse`` calls (one per text side) made by
    ``function()``."""
    original = BasisEncoding.parse
    calls = 0

    def counting(self, text):
        nonlocal calls
        calls += 1
        return original(self, text)

    BasisEncoding.parse = counting
    try:
        function()
    finally:
        BasisEncoding.parse = original
    return calls


def _cold(encoding: BasisEncoding, function):
    """``function`` with the codec memos emptied before every call, so it
    times the walk, not a memo hit."""
    clear = encoding.cache_clear

    def call(*args):
        clear()
        return function(*args)
    return call


def _codec_misses(encoding: BasisEncoding) -> int:
    return sum(row[1] for row in encoding.codec_info().values())


def _count_tree_parses(function) -> int:
    """``parse_subattribute`` calls made by ``function()``, wherever they
    are looked up."""
    modules = (encoding_module, dependency_module, session_module)
    calls = 0

    def counting(text, root):
        nonlocal calls
        calls += 1
        return parse_subattribute(text, root)

    for module in modules:
        module.parse_subattribute = counting
    try:
        function()
    finally:
        for module in modules:
            module.parse_subattribute = parse_subattribute
    return calls


def _measure_mutations(root, session: Session, sigma, working, rhs_pool
                       ) -> dict:
    """The ``mutations`` row (module doc)."""
    encoding = session.encoding
    rng = random.Random(11)
    dependencies = []
    while len(dependencies) < EDITS:
        cls = rng.choice((FunctionalDependency, MultivaluedDependency))
        dependency = cls(encoding.decode(rng.choice(working)),
                         encoding.decode(rng.choice(rhs_pool)))
        if dependency not in session and dependency not in dependencies:
            dependencies.append(dependency)
    texts = [dependency.display(root) for dependency in dependencies]

    # A session never queried has no plan; the warm one has one.
    bare = Session(root, sigma, encoding=encoding)
    planned = session

    def pairs(target: Session):
        def sweep():
            for text in texts:
                commands.execute(commands.Add(dependency=text), target)
                commands.execute(commands.Retract(dependency=text), target)
        return sweep

    before = bare.snapshot_state()
    for target in (bare, planned):
        pairs(target)()
        assert target.snapshot_state() == before

    tree_parses = {}
    for op in ("add", "retract"):
        kind = commands.Add if op == "add" else commands.Retract
        tree_parses[op] = _count_tree_parses(lambda: [
            commands.execute(kind(dependency=text), planned)
            for text in texts]) / len(texts)
    manager = SessionManager()
    managed = manager.open("s", root, sigma)
    _warm(managed.session, working)
    for op in ("add", "retract"):
        records = [WalRecord(seq, op, {"session": "s", "dependency": text})
                   for seq, text in enumerate(texts, 1)]
        tree_parses[f"apply_record_{op}"] = _count_tree_parses(lambda: [
            apply_record(manager, record) for record in records]) / len(texts)
    assert managed.session.snapshot_state() == before
    assert set(tree_parses.values()) == {0}, tree_parses

    def per_text(function) -> float:
        def sweep():
            for text in texts:
                function(text)
        return median_of(sweep, repeats=EDIT_REPEATS) / len(texts) * 1e6

    keys = list(map(session.dependency_masks, texts))
    assert [session.display_masks(*key) for key in keys] == texts
    display_masks = _cold(encoding, session.display_masks)

    return {
        "edit_texts": len(texts),
        "tree_parses_per_add": tree_parses["add"],
        "tree_parses_per_retract": tree_parses["retract"],
        "tree_parses_per_apply_record_add": tree_parses["apply_record_add"],
        "tree_parses_per_apply_record_retract":
            tree_parses["apply_record_retract"],
        "add_retract_pair_us_without_plan":
            median_of(pairs(bare), repeats=EDIT_REPEATS) / len(texts) * 1e6,
        "add_retract_pair_us_with_plan":
            median_of(pairs(planned), repeats=EDIT_REPEATS) / len(texts)
            * 1e6,
        "snapshot_state_cold_ms": median_of(
            _cold(encoding, bare.snapshot_state), repeats=EDIT_REPEATS) * 1e3,
        "snapshot_state_warm_ms": median_of(bare.snapshot_state,
                                            repeats=EDIT_REPEATS) * 1e3,
        "sigma": len(bare),
        "parse_dependency_us_per_edit": per_text(
            lambda text: parse_dependency(text, root)),
        "dependency_masks_us_per_edit": per_text(
            _cold(encoding, session.dependency_masks)),
        "display_us_per_edit": median_of(
            lambda: [d.display(root) for d in dependencies],
            repeats=EDIT_REPEATS) / len(texts) * 1e6,
        "display_masks_us_per_edit": median_of(
            lambda: [display_masks(*key) for key in keys],
            repeats=EDIT_REPEATS) / len(texts) * 1e6,
    }


def _measure() -> dict:
    root, session, requests, edit_inputs = _build()

    bound_answers = [_serve(session, command, bind=True)
                     for command in requests]
    unbound_answers = [_serve(session, command, bind=False)
                       for command in requests]
    assert bound_answers == unbound_answers

    dependency_texts = [command.dependency for command in requests
                        if isinstance(command, commands.Implies)]
    side_texts = [side.strip() for text in dependency_texts
                  for side in text.replace("->>", "->").split("->")]
    side_texts += [command.x for command in requests
                   if not isinstance(command, commands.Implies)]
    printed = []
    for command in requests:
        if isinstance(command, commands.Closure):
            printed.append(session.closure(command.x))
        elif isinstance(command, commands.Basis):
            printed.extend(session.dependency_basis(command.x))

    encoding = session.encoding
    encode, decode = encoding.encode, encoding.decode
    masks = [encoding.parse(text) for text in side_texts]
    assert masks == [encode(parse_subattribute(text, root))
                     for text in side_texts]
    printed_masks = [encode(element) for element in printed]
    assert [encoding.render(mask) for mask in printed_masks] == [
        unparse_abbreviated(decode(mask), root) for mask in printed_masks]

    def per_call(function, items) -> float:
        def sweep():
            for item in items:
                function(item)
        return median_of(sweep, repeats=REPEATS) / len(items) * 1e6

    parse_dependency_us = per_call(
        lambda text: parse_dependency(text, root), dependency_texts)
    parse_subattribute_us = per_call(
        lambda text: parse_subattribute(text, root), side_texts)
    unparse_us = per_call(
        lambda element: unparse_abbreviated(element, root), printed)

    def structural_parse():
        for text in side_texts:
            encode(parse_subattribute(text, root))

    def sweep(function, items):
        def run():
            for item in items:
                function(item)
        return run

    def structural_render():
        for mask in printed_masks:
            unparse_abbreviated(decode(mask), root)

    mask_parse = sweep(_cold(encoding, encoding.parse), side_texts)
    mask_render = sweep(_cold(encoding, encoding.render), printed_masks)
    structural_parse_s, mask_parse_s, parse_speedup = paired_speedup(
        structural_parse, mask_parse, rounds=CODEC_ROUNDS)
    structural_render_s, mask_render_s, render_speedup = paired_speedup(
        structural_render, mask_render, rounds=CODEC_ROUNDS)
    assert 1 / parse_speedup <= MAX_PARSE_RATIO, parse_speedup
    memo_parse_s = median_of(sweep(encoding.parse, side_texts),
                             repeats=REPEATS)
    memo_render_s = median_of(sweep(encoding.render, printed_masks),
                              repeats=REPEATS)

    def bound():
        for command in requests:
            _serve(session, command, bind=True)

    def unbound():
        for command in requests:
            _serve(session, command, bind=False)

    unbound_s, bound_s, speedup = paired_speedup(unbound, bound,
                                                 rounds=ROUNDS)

    sides = len(side_texts)
    bound_parses = _count_parses(bound)
    unbound_parses = _count_parses(unbound)
    assert bound_parses == sides, (bound_parses, sides)
    encoding.cache_clear()
    bound()
    first_misses = _codec_misses(encoding)
    bound()
    repeat_misses = _codec_misses(encoding) - first_misses
    assert repeat_misses == 0, repeat_misses

    return {
        "requests": len(requests),
        "text_sides": sides,
        "printed_elements": len(printed),
        "parse_dependency_us": parse_dependency_us,
        "parse_subattribute_us": parse_subattribute_us,
        "unparse_abbreviated_us": unparse_us,
        "structural_parse_encode_us_per_side":
            structural_parse_s / len(side_texts) * 1e6,
        "mask_parse_us_per_side": mask_parse_s / len(side_texts) * 1e6,
        "mask_parse_paired_speedup": parse_speedup,
        "mask_parse_memo_us_per_side": memo_parse_s / sides * 1e6,
        "decode_unparse_us_per_element":
            structural_render_s / len(printed_masks) * 1e6,
        "mask_render_us_per_element":
            mask_render_s / len(printed_masks) * 1e6,
        "mask_render_paired_speedup": render_speedup,
        "mask_render_memo_us_per_element":
            memo_render_s / len(printed_masks) * 1e6,
        "bound_request_us": bound_s / len(requests) * 1e6,
        "unbound_request_us": unbound_s / len(requests) * 1e6,
        "paired_median_speedup": speedup,
        "bound_parses_per_request": bound_parses / len(requests),
        "unbound_parses_per_request": unbound_parses / len(requests),
        "codec_misses_first_pass": first_misses,
        "codec_misses_repeat_pass": repeat_misses,
        "mutations": _measure_mutations(root, session, *edit_inputs),
    }


def test_text_codec_report(benchmark):
    row = benchmark.pedantic(_measure, rounds=1, iterations=1)

    report = {
        "workload": f"hot-read-shaped requests over mixed_family({SCALE}), "
                    f"random Σ of {SIGMA_SIZE}, {WORKING_SET}-LHS warm "
                    f"working set, read mix {dict(READ_MIX)}",
        "path": "bind -> commands.execute, in-process, warm session",
        "baseline": "commands.execute without bind (the run parses the "
                    "text)",
        "cpus": cpus(),
        **row,
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print("\nText codec on hot-read-shaped requests:")
    print(f"  parse_dependency    {row['parse_dependency_us']:8.1f} us/call")
    print(f"  parse_subattribute  {row['parse_subattribute_us']:8.1f} us/call")
    print(f"  unparse_abbreviated {row['unparse_abbreviated_us']:8.1f} us/call")
    print(f"  per side: parse_subattribute+encode "
          f"{row['structural_parse_encode_us_per_side']:6.1f} us, "
          f"BasisEncoding.parse {row['mask_parse_us_per_side']:6.1f} us "
          f"({row['mask_parse_paired_speedup']:.2f}x paired)")
    print(f"  per element: decode+unparse_abbreviated "
          f"{row['decode_unparse_us_per_element']:6.1f} us, "
          f"BasisEncoding.render {row['mask_render_us_per_element']:6.1f} us "
          f"({row['mask_render_paired_speedup']:.2f}x paired)")
    print(f"  memo hits: parse {row['mask_parse_memo_us_per_side']:6.2f} "
          f"us/side, render {row['mask_render_memo_us_per_element']:6.2f} "
          f"us/element; codec misses {row['codec_misses_first_pass']} on "
          f"the first pass, {row['codec_misses_repeat_pass']} on a repeat")
    print(f"  bound request   {row['bound_request_us']:8.1f} us "
          f"({row['bound_parses_per_request']:.2f} parses/request)")
    print(f"  unbound request {row['unbound_request_us']:8.1f} us "
          f"({row['unbound_parses_per_request']:.2f} parses/request)")
    print(f"  paired-median speedup {row['paired_median_speedup']:.2f}x")
    edits = row["mutations"]
    print(f"Mutations ({edits['edit_texts']} edit texts, "
          f"|Σ|={edits['sigma']}):")
    print(f"  tree parses per add/retract/apply_record: "
          f"{edits['tree_parses_per_add']:.0f}/"
          f"{edits['tree_parses_per_retract']:.0f}/"
          f"{edits['tree_parses_per_apply_record_add']:.0f}")
    print(f"  add+retract pair {edits['add_retract_pair_us_without_plan']:8.1f}"
          f" us without a plan, "
          f"{edits['add_retract_pair_us_with_plan']:8.1f} us with one")
    print(f"  snapshot_state   {edits['snapshot_state_cold_ms']:8.2f} ms cold, "
          f"{edits['snapshot_state_warm_ms']:8.2f} ms warm")
    print(f"  per edit: parse_dependency "
          f"{edits['parse_dependency_us_per_edit']:6.1f} us, dependency_masks "
          f"{edits['dependency_masks_us_per_edit']:6.1f} us; display "
          f"{edits['display_us_per_edit']:6.1f} us, display_masks "
          f"{edits['display_masks_us_per_edit']:6.1f} us")
    print(f"report written to {JSON_PATH.name}")
