#!/usr/bin/env python3
"""Generate docs/CONFIG_REFERENCE.md from src/core/system_config.hpp
and src/scenario/schema.hpp.

Parses the SystemConfig struct: each member's type, default value and
doc comment, plus (by grepping tests/ and bench/) which tests pin each
knob — so the table doubles as a coverage map. Also parses the KeyInfo
tables in scenario/schema.hpp and explore/sweep_schema.hpp into the
"Scenario file schema" and "Sweep spec schema" sections, so neither
JSON surface documented here can drift from what the loaders accept.
A row is `{"key", "type", "default", binding, "doc"}`; the generator
reads its first three string literals and its last one, so the binding
(the member the key sets) may hold literals of its own.
Stdlib only; run from the repository root:

    python3 tools/gen_config_reference.py          # rewrite the doc
    python3 tools/gen_config_reference.py --check  # CI: fail if stale
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HEADER = ROOT / "src" / "core" / "system_config.hpp"
SCHEMA = ROOT / "src" / "scenario" / "schema.hpp"
SWEEP_SCHEMA = ROOT / "src" / "explore" / "sweep_schema.hpp"
OUTPUT = ROOT / "docs" / "CONFIG_REFERENCE.md"

# KeyInfo arrays in schema.hpp, in render order: (array name, heading,
# lead-in sentence).
SCHEMA_TABLES = [
    (
        "kScenarioKeys",
        "Top-level keys",
        "Every key accepted at the top level of a scenario file. `app`"
        " and `cores`/`mesh` are mutually exclusive ways to pick the"
        " workload; the rest map one-to-one onto `SystemConfig` knobs"
        " above.",
    ),
    (
        "kMeshKeys",
        "`mesh` object",
        "Geometry of a custom core set's mesh (required whenever"
        " `cores` is present).",
    ),
    (
        "kCoreKeys",
        "`cores[]` entries",
        "One object per core. `node` and `region_base` are each"
        " all-or-none across the array: give them on every core or on"
        " none (auto-placement needs exactly width×height cores).",
    ),
    (
        "kFaultKeys",
        "`faults[]` entries",
        "One object per injected fault. `kind` selects which of the"
        " kind-specific parameters apply; the rest are ignored. Random"
        " schedules use the top-level `fault.*` knobs instead. Authoring"
        " guide with worked examples:"
        " [docs/RESILIENCE.md](RESILIENCE.md).",
    ),
    (
        "kTopologyKeys",
        "`topology` object",
        "An irregular fabric: named nodes wired by explicit links,"
        " replacing the parametric mesh. Inline object or a file path"
        " string (resolved against the scenario's directory). Requires"
        " `cores` with a `node` on every core; mutually exclusive with"
        " `mesh`, `mesh_preset` and `adaptive_routing`. Authoring guide:"
        " [docs/TOPOLOGIES.md](TOPOLOGIES.md).",
    ),
    (
        "kMemoryKeys",
        "`memory` object",
        "Placement and per-controller configuration of the"
        " `num_controllers` memory controllers. Omitted, controllers"
        " land on default nodes (mesh: spread around the perimeter ring;"
        " topology: spread across node ids).",
    ),
    (
        "kControllerKeys",
        "`memory.controllers[]` entries",
        "One override object per controller, index == channel; fewer"
        " entries than controllers leaves the tail on the top-level"
        " knobs. `null` (or an absent key) falls back to the matching"
        " top-level engine knob.",
    ),
]

# KeyInfo arrays in explore/sweep_schema.hpp, same shape and contract.
SWEEP_TABLES = [
    (
        "kSweepKeys",
        "Top-level sweep keys",
        "Every key accepted at the top level of a sweep-spec file"
        " (`scenarios/sweeps/*.json`, run by `annoc_sweep`).",
    ),
    (
        "kAxisKeys",
        "`axes[]` entries",
        "One object per swept scenario key. Exactly one of `values` and"
        " `range` supplies the candidate list.",
    ),
    (
        "kRangeKeys",
        "`range` object",
        "Evenly spaced numeric candidates, both endpoints included.",
    ),
]

# One C string literal, escapes included.
STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


def split_rows(body: str):
    """Top-level `{...}` groups of a table body, skipping string literals
    (their braces are text) and nested binding braces."""
    rows, depth, start, i = [], 0, 0, 0
    while i < len(body):
        if body[i] == '"':
            i = STRING_RE.match(body, i).end()
            continue
        if body[i] == "{":
            depth += 1
            if depth == 1:
                start = i
        elif body[i] == "}":
            depth -= 1
            if depth == 0:
                rows.append(body[start : i + 1])
        i += 1
    return rows


def parse_schema_array(text: str, array: str, origin: str = "schema.hpp"):
    """Rows of one `inline constexpr KeyInfo <array>[] = {...}` table.

    Each entry is `{"key", "type", "default", binding, "doc"},`: we take
    the first three string literals and the last one, and skip the
    binding between them.
    """
    m = re.search(re.escape(array) + r"\[\]\s*=\s*\{", text)
    if not m:
        raise SystemExit(f"{array} not found in {origin}")
    body = text[m.end() : text.index("\n};", m.end())]
    rows = []
    for row in split_rows(body):
        lits = [s.replace('\\"', '"') for s in STRING_RE.findall(row)]
        if len(lits) < 4:
            raise SystemExit(
                f"{array}: a row with {len(lits)} string literals — keep"
                " the {key, type, default, binding, doc} shape"
            )
        rows.append({"key": lits[0], "type": lits[1], "default": lits[2],
                     "doc": lits[-1]})
    if not rows:
        raise SystemExit(f"{array}: no rows")
    return rows


def extract_struct(text: str) -> str:
    start = text.index("struct SystemConfig {")
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
    raise SystemExit("unbalanced braces in SystemConfig")


MEMBER_RE = re.compile(
    r"^(?P<type>[A-Za-z_][\w:<>,\s]*?)\s+(?P<name>[a-z]\w*)"
    r"(?:\s*=\s*(?P<default>[^;]+))?;\s*(?:///<.*)?$"
)


def parse_members(struct_text: str):
    members = []
    doc: list[str] = []
    for raw in struct_text.splitlines()[1:-1]:
        line = raw.strip()
        if line.startswith("///"):
            doc.append(line.lstrip("/").strip())
            continue
        if not line or line.startswith("//"):
            continue
        if "(" in line and "=" not in line.split("(")[0]:
            doc = []  # method or constructor — not a knob
            continue
        m = MEMBER_RE.match(line)
        if m:
            members.append(
                {
                    "name": m.group("name"),
                    "type": " ".join(m.group("type").split()),
                    "default": (m.group("default") or "").strip(),
                    "doc": " ".join(doc),
                }
            )
        doc = []
    return members


def pinning_tests(name: str):
    """Test/bench files that assign this knob (cfg.<name> = / .name =)."""
    pattern = re.compile(r"\.\s*" + re.escape(name) + r"\s*=")
    hits = []
    for sub in ("tests", "bench"):
        for path in sorted((ROOT / sub).glob("*.cpp")):
            if pattern.search(path.read_text(encoding="utf-8")):
                hits.append(f"{sub}/{path.name}")
    return hits


def esc(s: str) -> str:
    return s.replace("|", "\\|").replace("<", "&lt;").replace(">", "&gt;")


def render_schema_section(schema_text: str) -> list[str]:
    lines = [
        "",
        "# Scenario file schema",
        "",
        "Keys of the declarative scenario files under"
        " [`scenarios/`](../scenarios), parsed from the `KeyInfo` tables"
        " in [`src/scenario/schema.hpp`](../src/scenario/schema.hpp)"
        " (the same tables the loader validates against, so this section"
        " cannot drift from the code). Narrative guide with worked"
        " examples: [docs/WORKLOADS.md](WORKLOADS.md).",
    ]
    lines += render_key_tables(schema_text, SCHEMA_TABLES, "schema.hpp")
    return lines


def render_key_tables(text: str, tables, origin: str) -> list[str]:
    lines: list[str] = []
    for array, heading, blurb in tables:
        rows = parse_schema_array(text, array, origin)
        lines += [
            "",
            f"## {heading}",
            "",
            blurb,
            "",
            "| key | type | default | description |",
            "|---|---|---|---|",
        ]
        for r in rows:
            default = r["default"]
            lines.append(
                "| `{}` | `{}` | {} | {} |".format(
                    r["key"],
                    esc(r["type"]),
                    f"`{esc(default)}`" if default != "-" else "required",
                    esc(r["doc"]),
                )
            )
    return lines


def render_sweep_section(sweep_text: str) -> list[str]:
    lines = [
        "",
        "# Sweep spec schema",
        "",
        "Keys of the design-space sweep files under"
        " [`scenarios/sweeps/`](../scenarios/sweeps), parsed from the"
        " `KeyInfo` tables in"
        " [`src/explore/sweep_schema.hpp`](../src/explore/sweep_schema.hpp)"
        " (the same tables `annoc_sweep` validates against). Any"
        " sweepable scenario key can be an axis; a grid takes the cross"
        " product, `\"mode\": \"random\"` draws `samples` seeded points."
        " Walkthrough: [EXPERIMENTS.md](../EXPERIMENTS.md).",
    ]
    lines += render_key_tables(sweep_text, SWEEP_TABLES, "sweep_schema.hpp")
    return lines


def render(members, schema_text: str, sweep_text: str) -> str:
    lines = [
        "# SystemConfig reference",
        "",
        "<!-- Generated by tools/gen_config_reference.py — do not edit"
        " by hand. -->",
        "",
        "Every knob of [`core::SystemConfig`](../src/core/system_config.hpp),"
        " the single struct that describes one simulation run. The last"
        " column lists the test and bench files that assign the knob —"
        " a coverage map of where each one is exercised.",
        "",
        "| knob | type | default | description | pinned by |",
        "|---|---|---|---|---|",
    ]
    for m in members:
        pins = pinning_tests(m["name"])
        shown = ", ".join(f"`{p}`" for p in pins[:4])
        if len(pins) > 4:
            shown += f" +{len(pins) - 4} more"
        lines.append(
            "| `{}` | `{}` | `{}` | {} | {} |".format(
                m["name"],
                esc(m["type"]),
                esc(m["default"]) if m["default"] else "—",
                esc(m["doc"]) or "—",
                shown or "—",
            )
        )
    lines += render_schema_section(schema_text)
    lines += render_sweep_section(sweep_text)
    lines += [
        "",
        "Regenerate with `python3 tools/gen_config_reference.py` after"
        " changing `system_config.hpp`, `scenario/schema.hpp` or"
        " `explore/sweep_schema.hpp`; CI fails if this file is stale.",
        "",
    ]
    return "\n".join(lines)


def main() -> int:
    members = parse_members(extract_struct(HEADER.read_text(encoding="utf-8")))
    if not members:
        print("no members parsed — parser bug?", file=sys.stderr)
        return 1
    doc = render(members, SCHEMA.read_text(encoding="utf-8"),
                 SWEEP_SCHEMA.read_text(encoding="utf-8"))
    if "--check" in sys.argv:
        current = OUTPUT.read_text(encoding="utf-8") if OUTPUT.exists() else ""
        if current != doc:
            print(
                f"{OUTPUT.relative_to(ROOT)} is stale: rerun "
                "python3 tools/gen_config_reference.py",
                file=sys.stderr,
            )
            return 1
        print(f"{OUTPUT.relative_to(ROOT)} is up to date "
              f"({len(members)} knobs)")
        return 0
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(doc, encoding="utf-8")
    print(f"wrote {OUTPUT.relative_to(ROOT)} ({len(members)} knobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
