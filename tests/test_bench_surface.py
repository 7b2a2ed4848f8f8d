"""The evifuse surface that the benchmark harness in ``perfbench/`` reaches.

``perfbench/`` calls only evifuse's public names and changes only together
with the benchmark, so removing or renaming one of those names in
``src/`` would break the benchmark while every other test still passes.
These checks load the harness sources without changing them:
``tracing.py`` is imported from its file, and ``workloads.py`` and
``record.py`` are parsed. Every name they use is resolved against the
package.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import types
from pathlib import Path

import numpy as np
import pytest

import evifuse
import evifuse.network
import evifuse.verify
from evifuse.encoding import EncodedEvents
from evifuse.events import EventWindow
from evifuse.params import ParamStore

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
HARNESS_SOURCES = ("workloads.py", "record.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def boundaries():
    return [name for names in load_tracing().LAYERS.values() for name in names]


def _package_chain(node):
    """``["verify", "run_checks"]`` for ``E.verify.run_checks`` or
    ``self.E.verify.run_checks``; None for any other expression."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    chain.reverse()
    if isinstance(node, ast.Name) and node.id == "E" and chain:
        return chain
    if isinstance(node, ast.Name) and node.id == "self" and chain[:1] == ["E"] and chain[1:]:
        return chain[1:]
    return None


def harness_uses():
    """(file, line, dotted name, call node or None) for each package name used."""
    uses = []
    for filename in HARNESS_SOURCES:
        tree = ast.parse((PERFBENCH / filename).read_text(), filename)
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            chain = _package_chain(node) if isinstance(node, ast.Attribute) else None
            if chain:
                uses.append((filename, node.lineno, ".".join(chain), calls.get(id(node))))
    return uses


def resolve(dotted):
    obj = evifuse
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("name", boundaries())
def test_traced_boundary_resolves(name):
    # tracing.install wraps module functions and methods a class defines itself
    mod_name, *path = name.split(".")
    owner = importlib.import_module(f"evifuse.{mod_name}")
    if len(path) == 2:
        cls = getattr(owner, path[0])
        assert callable(cls.__dict__.get(path[1])), f"{name} is not a method of {cls}"
    else:
        assert len(path) == 1
        assert callable(getattr(owner, path[0], None)), f"{name} is not a function"


def test_harness_names_resolve_and_accept_their_arguments():
    uses = harness_uses()
    assert {"check_param", "loss_ce", "make_rng", "Tensor", "Model",
            "network.encode_scene", "verify.run_checks",
            "verify.minimal_network_config", "verify.OBJECTIVE_SCALE",
            "verify.TOLERANCE"} <= {dotted for _, _, dotted, _ in uses}
    problems = []
    for filename, line, dotted, call in uses:
        where = f"perfbench/{filename}:{line} {dotted}"
        try:
            obj = resolve(dotted)
        except AttributeError as exc:
            problems.append(f"{where}: {exc}")
            continue
        if call is None:
            continue
        positional = [a for a in call.args if not isinstance(a, ast.Starred)]
        keywords = [k.arg for k in call.keywords if k.arg is not None]
        # with *args or **kwargs at the call, missing arguments cannot be told
        complete = len(positional) == len(call.args) and len(keywords) == len(call.keywords)
        signature = inspect.signature(obj)
        bind = signature.bind if complete else signature.bind_partial
        try:
            bind(*positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            problems.append(f"{where}: {exc}")
    assert not problems, "\n".join(problems)


def test_objects_the_harness_handles():
    # store, model and encoding members the workloads use on returned objects
    for attr in ("items", "names", "__getitem__"):
        assert callable(getattr(ParamStore, attr, None)), attr
    model = evifuse.Model(evifuse.verify.minimal_network_config(1), dtype=np.float64)
    assert isinstance(model.store, ParamStore)
    names = model.store.names()
    assert [n for n, _ in model.store.items()] == names
    assert model.store[names[0]].size >= 1
    assert callable(model.forward) and callable(model.forward_encoded)
    assert isinstance(EventWindow.count, property)
    assert {"e_vt", "a_cm"} <= set(EncodedEvents.__dataclass_fields__)


def test_check_input_probes_run_under_check_param():
    # the traced gradcheck workload counts probes as stage forwards made
    # directly inside a check_param span, check_input's included
    tracing = load_tracing()
    forward, _, inputs = evifuse.verify.refine_case(1)
    _, e_vt = inputs[0]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        evifuse.gradcheck.check_input(forward, e_vt)
    finally:
        tracing.uninstall(undo)
    assert tracer.calls["gradcheck.check_param"] == 1
    assert tracer.counts["gradcheck.probes"] == 1 + 2 * e_vt.size


def readme_imports():
    """Names the README's *Library use* example imports from the package."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return {alias.name for node in ast.walk(ast.parse(code))
            if isinstance(node, ast.ImportFrom) and node.module == "evifuse"
            for alias in node.names}


def test_top_level_holds_only_the_names_callers_import():
    # one route to each name: a stage function or helper is reached through
    # its own module, not also through the package
    public = {name: value for name, value in vars(evifuse).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    imported = readme_imports() | {dotted.split(".")[0] for _, _, dotted, _ in harness_uses()}
    extra = sorted(name for name, value in public.items() if name not in imported
                   and not (isinstance(value, type) and issubclass(value, Exception)))
    assert not extra, f"top-level names no caller imports: {extra}"
    assert {"NetworkConfig", "Model", "Tape", "train_toy"} <= readme_imports()
