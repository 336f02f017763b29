"""The reach rule as a check: code that nothing reaches gets deleted.

A bounded workload runs under a call-only trace hook, and every function
under src/tallyflow/ that never ran must have an entry in ALLOWED with
one of four reasons:

- refusal: it only formats a refusal or a failed check;
- protocol: a dunder method, or the abstract Node.apply;
- reference: a test compares against it;
- pending item N: the ROADMAP item that will be its first reader.

An unreached function with no entry fails the check, and so does an
entry whose function ran (or no longer exists), because the list has
gone stale.  A function is a code object with its own locals and a name;
class and module bodies, lambdas and comprehensions are not functions.

The workload: check, and run in both formats, on both fixtures; the
refusal tables' documents, the widened untag document and the process
entry (os._exit patched) of test_csv_cli; README's library example; the
acceptance criteria at reduced case counts; and 300 fuzz cases of seed
0 in one share.
"""

import inspect
import itertools
import os
import re
import sys
import types

import test_acceptance as acceptance
import test_csv_cli as cli_tests
import test_pipeline as pipeline_tests

import tallyflow
from tallyflow import fuzz
from tallyflow.cli import main

PACKAGE = os.path.dirname(tallyflow.__file__)
REASON = re.compile(r"refusal|protocol|reference|pending item \d+")

# every unreached function, by module and qualified name
ALLOWED = {
    "__init__.__getattr__": "protocol",
    "audit._fmt_pids": "refusal",
    "errors.InvalidGraph.__reduce__": "protocol",
    "ops._show_schema": "refusal",
    "pipeline.Node.apply": "protocol",
    "pipeline.PortRef.__str__": "refusal",
    "pipeline.RunAudit.visits": "pending item 5",  # perfbench/tracer.py reads it
    "pipeline.trace": "reference",  # audit.json's paths are checked against it
    "ra._infer.fail": "refusal",
    "ra._show_row": "refusal",
    "relation.Record.__eq__": "protocol",
    "relation.Record.__repr__": "protocol",
    "space.DataSpace.measure": "pending item 1",
    "values.Frozen.__delattr__": "protocol",
    "values.Frozen.__reduce__": "protocol",
    "values.Frozen.__repr__": "protocol",
    "values.Frozen.__setattr__": "protocol",
    "values.Missing.__str__": "protocol",
}


def _key(code) -> tuple:
    return code.co_filename, code.co_firstlineno, code.co_name


def modules(directory: str) -> dict:
    """Dotted module name -> the compiled code of each .py file in directory."""
    out = {}
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".py"):
            path = os.path.join(directory, fname)
            with open(path, encoding="utf-8") as fh:
                out[fname[:-3]] = compile(fh.read(), path, "exec")
    return out


def functions(codes: dict) -> dict:
    """(file, first line, name) -> 'module.Qual.name' of every function in codes."""
    found = {}

    def walk(code, prefix: str) -> None:
        for c in code.co_consts:
            if isinstance(c, types.CodeType) and not c.co_name.startswith("<"):
                if c.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    found[_key(c)] = prefix + c.co_name
                walk(c, f"{prefix}{c.co_name}.")

    for module, code in codes.items():
        walk(code, f"{module}.")
    return found


def reached(work) -> set:
    """The key of every function that work() calls.  The hook sees calls
    only, and the caller's own hook is back in place afterwards."""
    codes = {}

    def hook(frame, event, arg):
        codes[id(frame.f_code)] = frame.f_code  # held, so no id is reused

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        work()
    finally:
        sys.settrace(previous)
    return {_key(code) for code in codes.values()}


def check(found: dict, ran: set, allowed: dict) -> tuple:
    """(unlisted, stale): the unreached functions that allowed does not
    name, and the names in allowed that are not unreached functions."""
    unreached = {name for key, name in found.items() if key not in ran}
    return sorted(unreached - set(allowed)), sorted(set(allowed) - unreached)


def load_again(codes: dict) -> None:
    """Run each module's top level once more, into a namespace of its own.
    The package was imported before any hook went in; this shows the hook
    the functions a module calls while it loads (Frozen.__init_subclass__,
    the grammar's constructors)."""
    for module, code in codes.items():
        name = "tallyflow" if module == "__init__" else f"tallyflow.{module}"
        exec(code, {"__name__": name, "__package__": "tallyflow", "__file__": code.co_filename})


def workload(tmp_path, capsys, monkeypatch, codes: dict) -> None:
    dirs = (tmp_path / str(i) for i in itertools.count())

    def fresh():
        d = next(dirs)
        d.mkdir()
        return d

    load_again(codes)
    for fixture in ("ship", "lookup"):
        data = cli_tests.fixture_dir(fixture)
        doc = os.path.join(data, "pipeline.yaml")
        assert main(["check", doc, "--data", data]) == 0
        for fmt in ("text", "structured"):
            assert main(["run", doc, "--data", data, "--out", str(fresh()), "--format", fmt]) == 0
    capsys.readouterr()
    for case in cli_tests.BAD_ENTRIES:
        cli_tests.test_bad_document_entries_exit_2_naming_the_entry(fresh(), capsys, case)
    for case in cli_tests.COMPUTED_TYPE_ERRORS:
        cli_tests.test_a_computed_type_error_is_caught_before_any_row_runs(fresh(), capsys, case)
    for case in cli_tests.JOIN_KEY_ERRORS:
        cli_tests.test_a_join_on_keys_that_cannot_match_is_caught_before_any_row_runs(
            fresh(), capsys, case)
    for case in cli_tests.UNKNOWN_COLUMNS:
        cli_tests.test_an_unknown_column_is_caught_before_any_row_runs(fresh(), capsys, case)
    cli_tests.test_untag_splits_a_union_again_after_a_shared_stage(fresh(), capsys)
    with monkeypatch.context() as patch:  # the process entry, with os._exit patched
        cli_tests.test_entry_flushes_then_ends_the_process_or_exits_if_a_flush_fails(
            patch, capsys)
    pipeline_tests.test_the_readme_library_example_runs_and_balances(capsys)

    # the acceptance criteria at reduced case counts, on one CPU so that
    # every fuzz case runs in this process, under the hook
    for name in ("ORACLE_CASES", "CONSERVATION_SAMPLE", "LAW_CASES_PER_KIND",
                 "ROUNDTRIP_CASES", "RERUN_FUZZ_CASES"):
        monkeypatch.setattr(acceptance, name, 20)
    monkeypatch.setattr(acceptance, "_announce", lambda *args: None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    ship, lookup = acceptance.run_fixture("ship"), acceptance.run_fixture("lookup")
    acceptance.test_criterion_1_compiled_queries_match_the_reference_evaluator(capsys)
    acceptance.test_criterion_2_conservation_holds_for_fuzz_runs_and_fixtures(
        capsys, ship, lookup)
    acceptance.test_criterion_3_summary_laws_hold_at_scale(capsys)
    acceptance.test_criterion_4_ship_reports_classify_the_manifest(capsys, ship)
    acceptance.test_criterion_5_lookup_routes_misspellings_and_unused_references(capsys, lookup)
    acceptance.test_criterion_6_projection_keeps_every_fact(capsys)
    acceptance.test_criterion_7_runs_are_byte_identical(capsys, fresh())

    assert fuzz.run_share(0, 300, 0, 1)[0] == 0


def test_every_function_is_reached_or_listed_with_its_reason(tmp_path, capsys, monkeypatch):
    codes = modules(PACKAGE)
    before = sys.gettrace()
    ran = reached(lambda: workload(tmp_path, capsys, monkeypatch, codes))
    assert sys.gettrace() is before
    unlisted, stale = check(functions(codes), ran, ALLOWED)
    assert unlisted == [], "unreached, and not in ALLOWED"
    assert stale == [], "in ALLOWED, but reached or gone"


def test_every_entry_gives_one_of_the_four_reasons():
    assert [name for name, why in ALLOWED.items() if not REASON.fullmatch(why)] == []


PLANTED = '''
class Box:
    def used(self):
        return inner()


def inner():
    return [n for n in (lambda: (1,))()]


def planted():
    return 2
'''


def planted(tmp_path) -> tuple:
    """The functions of a module holding one function that never runs,
    and the keys of those that Box.used calls."""
    (tmp_path / "planted.py").write_text(PLANTED, encoding="utf-8")
    codes = modules(str(tmp_path))
    namespace: dict = {}
    exec(codes["planted"], namespace)
    return functions(codes), reached(namespace["Box"]().used)


def test_a_planted_function_that_never_runs_fails_the_check(tmp_path):
    found, ran = planted(tmp_path)
    # a class body, a lambda and a comprehension are not functions
    assert sorted(found.values()) == ["planted.Box.used", "planted.inner", "planted.planted"]
    assert check(found, ran, {}) == (["planted.planted"], [])
    assert check(found, ran, {"planted.planted": "refusal"}) == ([], [])


def test_an_entry_for_a_function_that_runs_fails_the_check(tmp_path):
    found, ran = planted(tmp_path)
    allowed = {"planted.planted": "refusal", "planted.inner": "refusal"}
    assert check(found, ran, allowed) == ([], ["planted.inner"])
