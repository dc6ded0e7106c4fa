"""Property test of ``load_config``: any ``--set`` override is rejected with
ConfigError or yields a complete config that validates against ``SPEC``."""

import json

from hypothesis import given, settings, strategies as st

from codtsim.config import DEFAULT_CONFIG, SPEC, _validate, load_config
from codtsim.errors import ConfigError


def _nodes(spec, prefix=""):
    for key, node in spec.items():
        path = f"{prefix}{key}"
        yield path, node
        if isinstance(node, dict):
            yield from _nodes(node, path + ".")


LEAF_PATHS = [path for path, node in _nodes(SPEC) if not isinstance(node, dict)]
SECTIONS = [(path, node) for path, node in _nodes(DEFAULT_CONFIG) if isinstance(node, dict)]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
junk_paths = st.lists(st.text(alphabet="abfz_.0", max_size=6), min_size=1, max_size=3).map(".".join)
raw_values = json_values.map(json.dumps) | st.text(max_size=8)  # json.dumps writes NaN/Infinity as such
leaf_overrides = st.tuples(st.sampled_from(LEAF_PATHS) | junk_paths, raw_values)
# a partial object for a section, each key its default or junk, so overrides exercise the merge
section_overrides = st.sampled_from(SECTIONS).flatmap(
    lambda section: st.tuples(
        st.just(section[0]),
        st.fixed_dictionaries(
            {}, optional={key: st.just(default) | json_values for key, default in section[1].items()}
        ).map(json.dumps),
    )
)


def _assert_complete(spec: dict, cfg: dict) -> None:
    for key, node in spec.items():
        assert key in cfg
        if isinstance(node, dict):
            _assert_complete(node, cfg[key])


@settings(max_examples=200, deadline=None)
@given(st.lists(leaf_overrides | section_overrides, min_size=1, max_size=3))
def test_override_rejected_or_config_complete(overrides):
    try:
        cfg = load_config(overrides=[f"{path}={raw}" for path, raw in overrides])
    except ConfigError:
        return
    _validate(cfg, SPEC)
    _assert_complete(SPEC, cfg)
