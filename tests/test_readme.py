"""The README's code runs against the package: its Python blocks and its model config."""

import util
from hqmmsym.hqmm import CausalStructure, triple_from_config


def test_python_blocks_run_in_order():
    blocks = util.readme_blocks("python")
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    # the library example's comment gives the value of the projector word
    assert abs(namespace["value"].real - 1 / 27) < 1e-12
    assert namespace["values"].shape == (100,)


def test_model_config_block_loads():
    triple, structure = triple_from_config(util.readme_model_config())
    assert (triple.hidden_dim, triple.obs_dim) == (2, 3)
    assert structure is CausalStructure.CAUSAL
    util.assert_cpu(triple.defects())
