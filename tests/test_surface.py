"""Guard against second paths: every public module-level function and class
in src/tabforge must be used by the package itself, not only by tests;
every defaulted parameter of a public module-level function must be set by
some call in the package; no config dataclass declares a default, and each
builds from the run config; no module but transform, which owns the encoded-row
layout, may branch on a span's kind; and importing the CLI loads none of the
modules only some commands run, and `clean` and `report` run without numpy.

A name counts as used when code in src/tabforge outside its own definition
refers to it.  Re-exports in `__init__.py` do not count.  The entry points
need no caller: command functions (under a `@cli.command(...)` decorator,
which registers them) and `cli.main`.  SEAMS lists the few names kept for
callers outside the package.

A parameter counts as set by a call outside the function's own body that
names the function and passes the parameter by keyword, by position, or
through `*args`/`**kwargs`.  A default no call overrides is a constant in
disguise; PINNED_DEFAULTS lists the few kept for callers outside the package.
"""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import tabforge
import tabforge.cleaning as cleaning
import tabforge.config as config
import tabforge.split as split
import tabforge.training as training

PACKAGE = Path(tabforge.__file__).parent

# Public names with no caller inside the package, and why each stays.
SEAMS = {}


# Defaulted parameters no call in the package sets, and why each stays.
PINNED_DEFAULTS = {
    "models.ctgan.ctgan_sample.condition": "criterion 8 samples a fine-tuned CTGAN under a forced condition",
    "leaderboard.mann_whitney_u.method": "tests compare the exact and the normal-approximation p-values",
    "models.ctgan.build_ctgan.dtype": "gradient checks build a float64 reference model",
    "models.vae.build_vae.dtype": "gradient checks build a float64 reference model",
}


def _is_entry_point(node, module: str) -> bool:
    if module == "cli" and node.name == "main":
        return True
    for deco in getattr(node, "decorator_list", ()):
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute) and target.attr == "command":
            return True
    return False


def _referenced_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
            yield module, ast.parse(path.read_text(encoding="utf-8"))


def unreferenced_public_names() -> list[str]:
    """`module.name` for every public module-level def or class that nothing
    else in the package refers to."""
    defined: list[tuple[str, str, ast.AST]] = []
    uses: list[tuple[ast.AST | None, set[str]]] = []  # (enclosing top-level def, names)
    for module, tree in _modules():
        for node in tree.body:
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_") and not _is_entry_point(node, module):
                defined.append((module, node.name, node))
            uses.append((node if is_def else None, _referenced_names(node)))
    return [
        f"{module}.{name}"
        for module, name, node in defined
        if name not in SEAMS and not any(name in names for owner, names in uses if owner is not node)
    ]


def test_every_public_name_is_used_by_the_package():
    assert unreferenced_public_names() == []


def _defaulted_params(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position or None for keyword-only, name) of each defaulted parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def _call_sets(call: ast.Call, position: int | None, name: str) -> bool:
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def unset_defaulted_params() -> list[str]:
    """`module.function.param` for every defaulted parameter of a public
    module-level function that no call in the package sets."""
    functions: list[tuple[str, ast.FunctionDef]] = []
    calls: list[tuple[ast.AST, ast.Call]] = []  # (enclosing top-level node, call)
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions.append((module, node))
            calls += [(node, sub) for sub in ast.walk(node) if isinstance(sub, ast.Call)]
    unset = []
    for module, fn in functions:
        callers = [
            call
            for owner, call in calls
            if owner is not fn
            and (getattr(call.func, "id", None) == fn.name or getattr(call.func, "attr", None) == fn.name)
        ]
        for position, param in _defaulted_params(fn):
            key = f"{module}.{fn.name}.{param}"
            if key not in PINNED_DEFAULTS and not any(_call_sets(c, position, param) for c in callers):
                unset.append(key)
    return unset


def test_every_defaulted_parameter_is_set_by_the_package():
    assert unset_defaulted_params() == []


# (defining module, dataclass) for every config dataclass a run builds from
# its config.
CONFIG_CLASSES = [
    ("tabforge.cleaning", "CleaningConfig"),
    ("tabforge.split", "SplitSpec"),
    ("tabforge.models.ctgan", "CtganConfig"),
    ("tabforge.models.vae", "VaeConfig"),
    ("tabforge.great.model", "GreatConfig"),
    ("tabforge.training", "TrainConfig"),
]


def test_no_config_dataclass_declares_a_default():
    # config.DEFAULTS is the only table of defaults: a default written on a
    # field is a second copy, free to drift from the one a run reads.
    classes = {name: getattr(importlib.import_module(home), name, None) for home, name in CONFIG_CLASSES}
    found = [name for name, cls in classes.items() if dataclasses.is_dataclass(cls) and isinstance(cls, type)]
    assert found == [name for _, name in CONFIG_CLASSES]
    defaulted = [
        f"{name}.{f.name}"
        for name, cls in classes.items()
        for f in dataclasses.fields(cls)
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    ]
    assert defaulted == []


def test_every_config_field_is_set_from_the_run_config():
    # With no field defaulted, a builder that leaves a field unset raises
    # TypeError, so building each config from the defaults checks that every
    # field is set from the run config.
    cfg = config.load_config()
    assert isinstance(cleaning.cleaning_config(cfg), cleaning.CleaningConfig)
    assert isinstance(split.split_spec(cfg), split.SplitSpec)
    assert [training.train_config(cfg, kind).kind for kind in training.KINDS] == list(training.KINDS)


SPAN_KINDS = {"numeric", "categorical"}


def span_kind_comparisons() -> list[str]:
    """`module:line` for every comparison of a span kind (a `kind` name or
    `.kind` attribute) with "numeric" or "categorical" outside transform,
    which owns the encoded-row layout."""
    found = []
    for module, tree in _modules():
        if module == "transform":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            names_kind = any(
                (isinstance(o, ast.Name) and o.id == "kind") or (isinstance(o, ast.Attribute) and o.attr == "kind")
                for o in operands
            )
            constants = {c.value for o in operands for c in ast.walk(o) if isinstance(c, ast.Constant)}
            if names_kind and constants & SPAN_KINDS:
                found.append(f"{module}:{node.lineno}")
    return found


def test_only_transform_branches_on_span_kinds():
    # The models read the layout through ColumnTransformer.alphas, .blocks
    # and .cond_start instead of re-deriving it span by span.
    assert span_kind_comparisons() == []


# Modules `import tabforge.cli` must not load: each command imports what it
# runs, so `clean` and `report` run without numpy and no command pays for
# another's stack.  The command line parses with argparse, not click.
LAZY_MODULES = (
    "numpy",
    "concurrent.futures.process",
    "tabforge.cleaning",
    "tabforge.training",
    "tabforge.transform",
    "tabforge.metrics",
    "tabforge.split",
    "tabforge.checkpoint",
)
LAZY_PACKAGES = ("click", "tabforge.models", "tabforge.great", "tabforge.nn")


def _loaded_after(script: str) -> set[str]:
    """Module names in `sys.modules` after `script` runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    script += "\nimport sys\nprint(*('loaded:' + m for m in sys.modules), sep='\\n')\n"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return {line[len("loaded:"):] for line in out.stdout.splitlines() if line.startswith("loaded:")}


def test_importing_the_cli_loads_no_command_stack():
    loaded = _loaded_after("import tabforge.cli")
    assert "tabforge.cli" in loaded
    eager = sorted(
        m for m in loaded if m in LAZY_MODULES or any(m == p or m.startswith(p + ".") for p in LAZY_PACKAGES)
    )
    assert eager == []


def test_clean_runs_without_numpy(tmp_path):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    corpus.mkdir()
    for t in range(2):
        rows = [f"{i * (t + 1)}.5,{'abc'[i % 3]}" for i in range(20)]
        (corpus / f"t{t}.csv").write_text("x,color\n" + "\n".join(rows) + "\n", encoding="utf-8")
    script = (
        "import sys\n"
        "import tabforge.cli\n"
        f"sys.argv = ['tabforge', 'clean', {str(corpus)!r}, {str(out)!r}]\n"
        "tabforge.cli.main()\n"
    )
    loaded = _loaded_after(script)
    assert sorted(p.name for p in out.glob("*.csv")) == ["t0.csv", "t1.csv"]
    assert "numpy" not in loaded


def test_report_runs_without_numpy(tmp_path):
    bench, out = tmp_path / "bench", tmp_path / "out"
    (bench / "reports").mkdir(parents=True)
    for regime, scores in (("finetuned", (0.9, 0.7)), ("scratch", (0.6, 0.8))):
        for table, s in zip(("t0", "t1"), scores):
            doc = {"table": table, "shape_scores": {"x": s}, "trend_scores": {}, "s_shape": s,
                   "s_trend": 0.0, "s_overall": s, "syn_rows": 10, "single_column": True}
            (bench / "reports" / f"{table}.stvae.{regime}.json").write_text(json.dumps(doc), encoding="utf-8")
    script = (
        "import sys\n"
        "import tabforge.cli\n"
        f"sys.argv = ['tabforge', 'report', '--bench-dir', {str(bench)!r}, '--out-dir', {str(out)!r}]\n"
        "tabforge.cli.main()\n"
    )
    loaded = _loaded_after(script)
    rows = (out / "leaderboard.csv").read_text(encoding="utf-8").splitlines()
    assert rows[2:] == ["bench,stvae,finetuned,0.800000,0.100000,0.000000,0.000000,0.800000,0.100000,0.666667",
                        "bench,stvae,scratch,0.700000,0.100000,0.000000,0.000000,0.700000,0.100000,"]
    assert "numpy" not in loaded
