"""Every pipeline and column document is read against one declared grammar.

The sweep replaces each value of both fixtures' documents in turn by six
wrong values and runs `check` on each copy in memory, through cmd_check
with the document reader serving the copy.  No copy may raise, and no
refusal may answer in Python's own words.
"""

import argparse
import contextlib
import io
import os
import re
import shutil
from importlib import resources

import pytest
import yaml

import tallyflow.csvio as csvio
import tallyflow.pipeline_doc as pipeline_doc
from tallyflow.cli import cmd_check, main
from tallyflow.pipeline import NODE_TYPES

WRONG = (5, "ab", [1], {"a": 1}, True, None)

# text Python writes when a document's shape reaches code that assumed another
PYTHON_TEXT = re.compile("object is not|has no attribute|string indices|unhashable|"
                         "not iterable|not supported between")

# every mutant that check accepts, as "fixture/file: path = value", each
# pattern with the number of mutants it matches and why they are fine
ACCEPTED = {
    r"\w+/pipeline\.yaml: name = 'ab'": (2, "a pipeline's name is any text"),
    r"\w+/pipeline\.yaml: nodes/\d+/reason = 'ab'": (5, "an errorize reason is any text"),
    r"\w+/pipeline\.yaml: nodes/\d+/units = None": (
        5, "units may be left out, so it may be null: the added field has no unit"),
    r"\w+/pipeline\.yaml: nodes/\d+/units/[^/]+ = (None|'ab')": (
        10, "a unit is any label, or null for none"),
    r"ship/pipeline\.yaml: nodes/\d+/rejected_to_errors = True": (
        5, "these partitions already say true: the mutant is the fixture"),
    r"ship/pipeline\.yaml: nodes/26/when/not/in/values(/\d)? = (5|'ab'|\[1\])": (
        5, "an in set may hold any values: 'ab' is a text, and an integer over a text "
           "field is not refused yet (ROADMAP item 10)"),
    r"\w+/\w+\.csv\.yaml: columns/\d+/name = 'ab'": (
        8, "check reads no CSV, so a column the pipeline never names may take any name; "
           "run refuses the header that no longer matches"),
    r"\w+/\w+\.csv\.yaml: columns/\d+/unit = (None|'ab')": (
        6, "a unit is any label, and a decimal column may have none"),
    r"ship/\w+\.csv\.yaml: columns/\d+/sentinels(/\d)? = (5|'ab'|\[1\])": (
        8, "a sentinel is any cell text, and a YAML integer reads as its decimal text "
           "(sentinels: [-1]); a float is refused, since YAML has changed its text "
           "(0.50 reads as 0.5) and it would never match a cell"),
    r"ship/\w+\.csv\.yaml: columns/\d+/empty = (5|'ab')": (
        4, "empty substitutes any cell text in these text columns, and a YAML integer "
           "reads as its decimal text (empty: 0), as for sentinels"),
}


def _fixture(name: str) -> str:
    return str(resources.files("tallyflow") / "fixtures" / name)


def _paths(value, at=()):
    """The path of every entry, list and mapping below value, in document order."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for k, v in items:
        yield at + (k,)
        yield from _paths(v, at + (k,))


def _replaced(value, path, new):
    """value with the entry at path replaced by new, sharing everything else."""
    if not path:
        return new
    k, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, k: _replaced(value[k], rest, new)}
    return [*value[:k], _replaced(value[k], rest, new), *value[k + 1:]]


def _check(data: str) -> tuple:
    """check's exit code, and what it printed on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cmd_check(argparse.Namespace(pipeline=os.path.join(data, "pipeline.yaml"),
                                            data=data))
    return code, out.getvalue() + err.getvalue()


def _documents(data: str) -> dict:
    return {os.path.join(data, n): csvio.read_yaml(os.path.join(data, n))
            for n in sorted(os.listdir(data)) if n.endswith(".yaml")}


def _serve(monkeypatch, served: dict) -> None:
    """Make check read each document from served instead of its file."""
    monkeypatch.setattr(csvio, "read_yaml", served.__getitem__)
    monkeypatch.setattr(pipeline_doc, "read_yaml", served.__getitem__)


def _mutants():
    """(id, data directory, documents with one entry replaced) for every mutant."""
    for fixture in ("lookup", "ship"):
        data = _fixture(fixture)
        docs = _documents(data)
        for target, doc in docs.items():
            for path in _paths(doc):
                for wrong in WRONG:
                    name = f"{fixture}/{os.path.basename(target)}: "
                    yield (f"{name}{'/'.join(map(str, path))} = {wrong!r}", data,
                           {**docs, target: _replaced(doc, path, wrong)})


def test_every_wrong_value_in_every_fixture_document_is_refused_in_words(monkeypatch):
    mutants = list(_mutants())
    served: dict = {}
    _serve(monkeypatch, served)
    accepted, raised, python_text = [], [], []
    for mutant, data, docs in mutants:
        served.clear()
        served.update(docs)
        try:
            code, text = _check(data)
        except Exception as exc:  # a traceback, which is what the sweep looks for
            raised.append(f"{mutant}: {exc!r}")
            continue
        if code == 0:
            accepted.append(mutant)
        elif code != 2 or PYTHON_TEXT.search(text):
            python_text.append(f"{mutant}: exit {code}: {text}")
    assert (raised, python_text) == ([], [])
    assert len(mutants) == 2826
    unexplained = [m for m in accepted if not any(re.fullmatch(p, m) for p in ACCEPTED)]
    assert unexplained == []
    counts = {p: sum(bool(re.fullmatch(p, m)) for m in accepted) for p in ACCEPTED}
    assert counts == {p: n for p, (n, _) in ACCEPTED.items()}


# (fixture, document, path, wrong value) of a few mutants that are also run
# on disk through main
ON_DISK = [
    ("lookup", "pipeline.yaml", ("sinks", "missing_products", "kind"), [1]),
    ("lookup", "pipeline.yaml", ("name",), "ab"),
    ("lookup", "products.csv.yaml", ("columns",), 5),
    ("ship", "items.csv.yaml", ("columns", 1, "sentinels"), "ab"),
    ("ship", "pipeline.yaml", ("nodes", 26, "when", "not"), {"a": 1}),
]


@pytest.mark.parametrize("fixture,fname,path,wrong", ON_DISK)
def test_check_on_disk_answers_as_the_sweep_does(tmp_path, capsys, monkeypatch,
                                                   fixture, fname, path, wrong):
    source = _fixture(fixture)
    docs = _documents(source)
    target = os.path.join(source, fname)
    mutated = _replaced(docs[target], path, wrong)
    with monkeypatch.context() as m:
        _serve(m, {**docs, target: mutated})
        in_memory = _check(source)
    data = tmp_path / "data"
    shutil.copytree(source, data)
    (data / fname).write_text(yaml.safe_dump(mutated), encoding="utf-8")
    code = main(["check", str(data / "pipeline.yaml"), "--data", str(data)])
    captured = capsys.readouterr()
    assert (code, (captured.out + captured.err).replace(str(data), source)) == in_memory


def test_the_readme_lists_every_declared_key_in_its_ops_row():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = {line.split("`")[1]: line for line in fh if line.startswith("| `")}
    missing = {op: [k for k in cls.doc_keys if f"`{k}:" not in rows.get(op, "")]
               for op, cls in NODE_TYPES.items()}
    assert missing == {op: [] for op in NODE_TYPES}
