"""The README's code runs against the package: its Python blocks and its model config."""

import json
import re
import textwrap
from pathlib import Path

import util
from hqmmsym.hqmm import CausalStructure, triple_from_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language: str) -> list[str]:
    """Fenced blocks of a language, dedented (some sit inside list items)."""
    fence = re.compile(r"^( *)```" + language + r"\n(.*?)^\1```", re.M | re.S)
    return [textwrap.dedent(m.group(2)) for m in fence.finditer(README)]


def test_python_blocks_run_in_order():
    blocks = _blocks("python")
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    # the library example's comment gives the value of the projector word
    assert abs(namespace["value"].real - 1 / 27) < 1e-12
    assert namespace["values"].shape == (100,)


def test_model_config_block_loads():
    [config] = [block for block in _blocks("json") if '"hidden_dim"' in block]
    triple, structure = triple_from_config(json.loads(config))
    assert (triple.hidden_dim, triple.obs_dim) == (2, 3)
    assert structure is CausalStructure.CAUSAL
    util.assert_cpu(triple.defects())
