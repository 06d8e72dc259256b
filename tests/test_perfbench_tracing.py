"""The benchmark's tracer must find every function it wraps.

``perfbench/tracing.py`` names rotforce functions by module and attribute;
renaming or removing one would otherwise only show when a benchmark run
is traced.  This test imports every rotforce module, installs the tracer,
and checks that it wraps each target and puts every original back.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import rotforce

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    mods = {k: v for k, v in sys.modules.items() if k == "rotforce" or k.startswith("rotforce.")}
    out = {}
    for name, mod in mods.items():
        for attr, value in vars(mod).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update({(name, attr, a): v for a, v in vars(value).items()})
    return out


def test_tracer_installs_over_every_target_and_uninstalls():
    for info in pkgutil.iter_modules(rotforce.__path__):
        importlib.import_module(f"rotforce.{info.name}")
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {(owner, name) for owner, name, _ in tracer._undo}
        assert len(patched) == len(tracer._undo)
        # each target is wrapped at its defining module or class
        for modname, path, _, _ in tracing.TARGETS:
            owner = sys.modules[f"rotforce.{modname}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            assert (owner, attr) in patched, f"{modname}.{path}"
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
