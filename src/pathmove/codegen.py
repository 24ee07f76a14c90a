"""Synthetic Java corpus generator with plantable misplaced methods.

Each project samples a handful of themes from a fixed global set.  A
theme contributes one class whose identifiers come from three pools
(field names, method names, local-variable names).  The pools are
disjoint across all themes, which guarantees that relocating a method
can never capture or collide a name, so every generated envy method is
mechanically movable and the move is reversible.

A class gets an accessor pair, three cohesive methods that read the
class's own fields bare, and one or two envy methods.  An envy method is
well placed as generated: it too uses only its own class's fields and
methods, bare.  It also carries a parameter typed with its own class
and three parameters typed with other classes of the project, one of
them drawn as `target` and two as decoys.  Injection moves it into one
of those three, where its body reaches back through the own-typed
parameter into the class it came from: that is the Feature Envy a
recommender must spot, ranking the old home among four candidate
classes.  One method per project is a pure delegation so the
structural filters see realistic negatives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .bundle import read_utf8
from .errors import ConfigError, DataError
from .frontend import SourceUnit, parse_unit

TRAIN_DIR = "train"
EVAL_DIR = "eval"


@dataclass(frozen=True)
class Theme:
    class_name: str
    fields: tuple[str, ...]
    methods: tuple[str, ...]
    locals_: tuple[str, ...]


THEMES: tuple[Theme, ...] = (
    Theme(
        "Orbit",
        ("apogee", "perigee", "inclination", "epoch"),
        ("boost", "coast", "deorbit", "rendezvous", "station", "beacon", "uplink", "telemetry"),
        ("thrust", "window", "phase", "burn", "vector", "wobble"),
    ),
    Theme(
        "Bakery",
        ("flour", "yeast", "oven", "crumb"),
        ("knead", "proof", "bake", "glaze", "mill", "crust", "ferment", "portion"),
        ("dough", "sponge", "loaf", "batch", "rise", "hydration"),
    ),
    Theme(
        "Harbor",
        ("tide", "berth", "draft", "cargo"),
        ("moor", "pilot", "stow", "hoist", "ballast", "anchorage", "slipway", "careen"),
        ("swell", "fathom", "keel", "bilge", "hull", "wake"),
    ),
    Theme(
        "Meadow",
        ("clover", "loam", "dew", "fescue"),
        ("graze", "scythe", "harrow", "reseed", "fallow", "windrow", "tedder", "bale"),
        ("sward", "tilth", "cutting", "pasture", "herbage", "stubble"),
    ),
    Theme(
        "Foundry",
        ("ingot", "slag", "crucible", "tuyere"),
        ("smelt", "quench", "anneal", "temper", "alloy", "degas", "pour", "dross"),
        ("melt", "charge", "ladle", "billet", "sprue", "flux"),
    ),
    Theme(
        "Observatory",
        ("aperture", "focal", "mirror", "dome"),
        ("slew", "track", "calibrate", "expose", "stack", "guide", "collimate", "refocus"),
        ("seeing", "airmass", "frame", "darkfield", "transit", "altitude"),
    ),
    Theme(
        "Orchard",
        ("rootstock", "canopy", "graft", "bloom"),
        ("prune", "thin", "espalier", "pollinate", "mulch", "cultivar", "ripen", "pick"),
        ("scion", "whip", "spur", "lateral", "drupe", "pome"),
    ),
    Theme(
        "Glacier",
        ("firn", "crevasse", "moraine", "serac"),
        ("calve", "ablate", "accumulate", "surge", "scour", "entrain", "deglaciate", "retreat"),
        ("icefall", "bergschrund", "neve", "till", "erratic", "kettle"),
    ),
    Theme(
        "Loom",
        ("warp", "weft", "shuttle", "heddle"),
        ("weave", "batten", "treadle", "sley", "tabby", "twill", "brocade", "selvage"),
        ("bobbin", "reed", "harness", "fell", "takeup", "letoff"),
    ),
    Theme(
        "Apiary",
        ("brood", "nectar", "comb", "propolis"),
        ("swarm", "forage", "requeen", "harvest", "smoke", "uncap", "winterize", "candle"),
        ("cluster", "cell", "drone", "pollen", "royal", "waggle"),
    ),
)

_COHESIVE_SLOTS = slice(0, 3)
_ENVY_SLOTS = slice(3, 5)
_DELEGATION_SLOT = 7


@dataclass
class GenConfig:
    """Corpus dimensions; defaults match the end-to-end evaluation."""

    n_projects: int = 20
    eval_projects: int = 5
    min_classes: int = 5
    max_classes: int = 7
    seed: int = 0

    def __post_init__(self):
        if self.n_projects < 1:
            raise ConfigError("n_projects must be positive")
        if not 0 < self.eval_projects < self.n_projects:
            raise ConfigError("eval_projects must leave at least one training project")
        if not 4 <= self.min_classes <= self.max_classes <= len(THEMES):
            raise ConfigError(
                f"class counts must satisfy 4 <= min <= max <= {len(THEMES)}"
            )


def _cap(name: str) -> str:
    return name[0].upper() + name[1:]


@dataclass
class _ClassPlan:
    theme: Theme
    fields: list[str]
    envy_names: list[str]


def _accessor_methods(plan: _ClassPlan) -> list[str]:
    field = plan.fields[0]
    return [
        f"    int get{_cap(field)}() {{\n"
        f"        return {field};\n"
        f"    }}",
        f"    void set{_cap(field)}(int value) {{\n"
        f"        {field} = value;\n"
        f"    }}",
    ]


def _cohesive_method(plan: _ClassPlan, name: str, rng: random.Random) -> str:
    f1, f2 = rng.sample(plan.fields, 2)
    l1, l2 = rng.sample(plan.theme.locals_, 2)
    shape = rng.randrange(3)
    if shape == 0:
        body = (
            f"        int {l1} = {f1} + k;\n"
            f"        int {l2} = {l1} * {f2};\n"
            f"        if ({l2} > n) {{\n"
            f"            {l2} = {l2} - {f1};\n"
            f"        }}\n"
            f"        return {l2};"
        )
    elif shape == 1:
        body = (
            f"        int {l1} = k;\n"
            f"        while ({l1} < {f1}) {{\n"
            f"            {l1} = {l1} + n;\n"
            f"        }}\n"
            f"        return {l1} + {f2};"
        )
    else:
        body = (
            f"        int {l1} = {f1} - n;\n"
            f"        int {l2} = ({l1} + {f2}) * k;\n"
            f"        return {l2} + {l1};"
        )
    return f"    int {name}(int k, int n) {{\n{body}\n    }}"


def _envy_method(
    plan: _ClassPlan,
    name: str,
    target: _ClassPlan,
    decoys: tuple[_ClassPlan, _ClassPlan],
    rng: random.Random,
) -> str:
    """A method that belongs where it is: every member it touches is its
    own class's, used bare.  If the method is moved, the own-typed `peer`
    parameter carries those members; `target` and the two decoys are the
    parameter-type classes it can be moved to."""
    f1, f2 = rng.sample(plan.fields, 2)
    call = rng.choice(plan.theme.methods[_COHESIVE_SLOTS])
    l1, l2, l3 = rng.sample(plan.theme.locals_, 3)
    shape = rng.randrange(2)
    if shape == 0:
        body = (
            f"        int {l1} = k + {rng.randrange(2, 9)};\n"
            f"        int {l2} = {l1} - k;\n"
            f"        int {l3} = {f1} + {l2};\n"
            f"        {l3} = {l3} * {call}({l1}, {l2});\n"
            f"        return {l3} + {f2};"
        )
    else:
        body = (
            f"        int {l1} = k * {rng.randrange(2, 9)};\n"
            f"        int {l2} = {call}({l1}, k);\n"
            f"        int {l3} = {l2} + {l1};\n"
            f"        if ({l3} > {f1}) {{\n"
            f"            {l3} = {l3} - {f2};\n"
            f"        }}\n"
            f"        return {l3} + {l1};"
        )
    own = plan.theme.class_name
    sig = (
        f"{own} peer, {target.theme.class_name} t, "
        f"{decoys[0].theme.class_name} aux, {decoys[1].theme.class_name} extra, int k"
    )
    return f"    int {name}({sig}) {{\n{body}\n    }}"


def _delegation_method(plan: _ClassPlan, rng: random.Random) -> str:
    name = plan.theme.methods[_DELEGATION_SLOT]
    inner = rng.choice(plan.theme.methods[_COHESIVE_SLOTS])
    return (
        f"    int {name}(int a, int b) {{\n"
        f"        return {inner}(a, b);\n"
        f"    }}"
    )


def generate_project(project_seed: int, min_classes: int = GenConfig.min_classes,
                     max_classes: int = GenConfig.max_classes) -> dict[str, str]:
    """One project: class name → source text, deterministic in the seed."""
    rng = random.Random(project_seed)
    n_classes = rng.randint(min_classes, max_classes)
    picked = rng.sample(range(len(THEMES)), n_classes)
    plans = []
    for idx in picked:
        theme = THEMES[idx]
        n_fields = rng.randint(3, 4)
        envy_count = rng.randint(1, 2)
        plans.append(
            _ClassPlan(
                theme,
                list(theme.fields[:n_fields]),
                list(theme.methods[_ENVY_SLOTS][:envy_count]),
            )
        )

    chunks: dict[str, list[str]] = {}
    for plan in plans:
        parts = _accessor_methods(plan)
        for name in plan.theme.methods[_COHESIVE_SLOTS]:
            parts.append(_cohesive_method(plan, name, rng))
        chunks[plan.theme.class_name] = parts

    # envy methods after the others: the corpora's bytes depend on this order of rng draws
    for plan in plans:
        others = [p for p in plans if p is not plan]
        for name in plan.envy_names:
            target = rng.choice(others)
            decoy_pool = [p for p in others if p is not target]
            decoys = tuple(rng.sample(decoy_pool, 2))
            chunks[plan.theme.class_name].append(
                _envy_method(plan, name, target, decoys, rng)
            )

    host = rng.choice(plans)
    chunks[host.theme.class_name].append(_delegation_method(host, rng))

    out = {}
    for plan in plans:
        fields = "\n".join(f"    int {f};" for f in plan.fields)
        methods = "\n\n".join(chunks[plan.theme.class_name])
        out[plan.theme.class_name] = (
            f"class {plan.theme.class_name} {{\n{fields}\n\n{methods}\n}}\n"
        )
    return out


def generate_corpus(config: GenConfig) -> dict[str, str]:
    """Relative file path → source text for the whole corpus.

    Projects are seeded independently from the corpus seed, so changing
    the project count does not reshuffle existing projects.
    """
    files: dict[str, str] = {}
    n_train = config.n_projects - config.eval_projects
    for i in range(config.n_projects):
        group = TRAIN_DIR if i < n_train else EVAL_DIR
        project = generate_project(
            config.seed * 100003 + i, config.min_classes, config.max_classes
        )
        for class_name, text in sorted(project.items()):
            files[f"{group}/proj-{i:02d}/{class_name}.java"] = text
    return files


def write_corpus(out_dir: str | Path, config: GenConfig) -> list[str]:
    """Write the corpus under out_dir, returning the sorted file list."""
    root = Path(out_dir)
    files = generate_corpus(config)
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return sorted(files)


def list_group(root: str | Path, group: str) -> list[str]:
    """One group's project directories as sorted corpus-relative paths;
    a missing or empty group directory is a DataError."""
    base = Path(root) / group
    if not base.is_dir():
        raise DataError(f"corpus at {root} has no {group}/ directory")
    projects = sorted(f"{group}/{p.name}" for p in base.iterdir() if p.is_dir())
    if not projects:
        raise DataError(f"no project directories under {base}")
    return projects


def list_projects(root: str | Path) -> tuple[list[str], list[str]]:
    """(train, eval) project directories as corpus-relative paths."""
    return list_group(root, TRAIN_DIR), list_group(root, EVAL_DIR)


def load_project(root: str | Path, project: str) -> list[SourceUnit]:
    """Parse every .java file of one project directory.

    Unit file paths stay corpus-relative, which keeps method ids stable
    no matter where the corpus lives on disk.
    """
    base = Path(root) / project
    paths = sorted(base.glob("*.java"))
    if not paths:
        raise DataError(f"no .java files under {base}")
    units = []
    for path in paths:
        rel = f"{project}/{path.name}"
        units.append(parse_unit(read_utf8(path), rel))
    return units
