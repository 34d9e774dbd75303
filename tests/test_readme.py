"""The README's contract blocks, checked against the code they describe.

Each test reads one block through ``readme.readme_block``: the spec example,
the exit-code table, the ``model.npz`` name table and the command list. The
run config example is checked in ``test_config.py``.
"""

import argparse
import itertools
import re
from dataclasses import fields

import pytest

from dualrec import cli
from dualrec.config import FUSIONS, VARIANTS, RunConfig, parse_fields, parse_key_values
from dualrec.data import InteractionSet
from dualrec.graph import build_bipartite_adjacency
from dualrec.model import BRANCHES, DOMAINS, build_model
from dualrec.synthetic import SyntheticSpec
from readme import readme_block, table_rows


def test_spec_example_is_the_default_spec():
    block = readme_block("Synthetic spec")
    assert list(parse_key_values(block)) == [f.name for f in fields(SyntheticSpec)]
    assert parse_fields(SyntheticSpec, block) == SyntheticSpec()


def test_exit_code_table_is_the_cli_codes():
    codes = [int(code) for code, _ in table_rows(readme_block("Exit codes"))]
    assert codes == sorted(v for name, v in vars(cli).items() if name.startswith("EXIT_"))


def test_command_list_is_the_cli_subcommands():
    (commands,) = (action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    listed = [line.split() for line in readme_block("CLI").strip().split("\n")]
    assert [words[1] for words in listed] == list(commands.choices)
    for words in listed:
        options = commands.choices[words[1]]._option_string_actions
        flags = [w.strip("[]") for w in words if w.lstrip("[").startswith("--")]
        assert all(flag in options for flag in flags), words


def drawn_by(cell: str, variant: str, fusion: str) -> bool:
    """Whether a table row's "drawn by" cell covers ``variant`` with ``fusion``."""
    named = re.findall(r"`([^`]*)`", cell)
    fusions = [n.split(" = ")[1] for n in named if n.startswith("fusion = ")]
    variants = [n for n in named if not n.startswith("fusion = ")]
    if fusions and fusion not in fusions:
        return False
    if cell.startswith("every variant"):
        return variant not in variants
    return variant in variants


def shape_of(cell: str, sizes: dict[str, int]) -> tuple[int, ...]:
    """A shape cell such as ``u×2k`` as numbers."""
    dims = []
    for term in cell.split("×"):
        coef, name = re.fullmatch(r"(\d*)([A-Za-z]?)", term).groups()
        dims.append(int(coef or 1) * (sizes[name] if name else 1))
    return tuple(dims)


def tabulated(variant: str, fusion: str, config: RunConfig, domain_sizes) -> dict:
    """Every (name, shape) the README's table gives for one variant and fusion."""
    k, l = config.k, config.l
    codes = len(VARIANTS[variant])
    g = (l + 1) * k
    u = g if not codes else {"concat": codes * k}.get(fusion, k)
    # the values each placeholder of a name pattern takes
    placeholders = {"d": DOMAINS, "e": BRANCHES, "h": ("h1", "h2"), "s": ("mu", "sigma"),
                    "i": [str(i) for i in range(l)], "j": [str(j) for j in range(codes)]}
    expected = {}
    for pattern, shape, cell in table_rows(readme_block("Model files")):
        if not drawn_by(cell, variant, fusion):
            continue
        pattern = pattern.strip("`")
        keys = re.findall(r"<(\w)>", pattern)
        for values in itertools.product(*(placeholders[key] for key in keys)):
            bound = dict(zip(keys, values))
            name = re.sub(r"<(\w)>", lambda m: bound[m.group(1)], pattern)
            sizes = {"k": k, "g": g, "C": codes, "u": u, "N": domain_sizes.get(bound.get("d"))}
            expected[name] = shape_of(shape, sizes)
    return expected


@pytest.mark.parametrize("fusion", FUSIONS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_model_table_is_what_build_model_draws(variant, fusion):
    # domains of different sizes, so that N differs between them
    sets = {"a": InteractionSet.from_pairs(3, 4, [(0, 0), (1, 1), (2, 3)]),
            "b": InteractionSet.from_pairs(3, 5, [(0, 4), (1, 2), (2, 0)])}
    config = RunConfig(k=3, l=2, variant=variant, fusion=fusion)
    model = build_model(build_bipartite_adjacency(sets["a"]),
                        build_bipartite_adjacency(sets["b"]), config)
    sizes = {tag: s.num_users + s.num_items for tag, s in sets.items()}
    drawn = {name: value.shape for name, value in model.params.items()}
    assert tabulated(variant, fusion, config, sizes) == drawn
